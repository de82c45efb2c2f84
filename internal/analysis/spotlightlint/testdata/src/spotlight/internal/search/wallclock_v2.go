package search

import randv2 "math/rand/v2"

// usesGlobalRandV2: the math/rand/v2 globals share one process-wide
// source too, so nowallclock flags them like math/rand's.
func usesGlobalRandV2() int {
	return randv2.IntN(7) // want "global rand.IntN in deterministic package"
}

// usesLocalPCG is the sanctioned v2 pattern: a locally seeded PCG and
// the methods of the generator built over it. No diagnostics.
func usesLocalPCG(seed uint64) int {
	pcg := randv2.NewPCG(seed, seed^1)
	r := randv2.New(pcg)
	return r.IntN(7) + int(pcg.Uint64()&1)
}
