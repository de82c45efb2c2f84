//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so the allocation gates on pooled paths skip.
const raceEnabled = true
