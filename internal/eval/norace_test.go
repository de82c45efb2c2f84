//go:build !race

package eval

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
