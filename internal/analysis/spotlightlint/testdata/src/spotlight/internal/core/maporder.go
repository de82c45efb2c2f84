// Package core is a fixture for maporder: flag order-sensitive map
// iteration (append to an outer slice, output, hashing, float
// accumulation), stay silent for the sorted-keys pattern,
// order-insensitive aggregation, per-iteration locals, and annotated
// exceptions.
package core

import (
	"fmt"
	"hash/fnv"
	"sort"
)

func appendsUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want "map iteration appends to a slice"
		out = append(out, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return out
}

func printsUnsorted(m map[string]int) {
	for k, v := range m { // want "map iteration writes output"
		fmt.Printf("%s=%d\n", k, v)
	}
}

func feedsHash(m map[string]int) uint64 {
	h := fnv.New64a()
	for k := range m { // want "map iteration writes output"
		h.Write([]byte(k))
	}
	return h.Sum64()
}

// sortedKeysPattern is the sanctioned fix: collect, sort, then index.
func sortedKeysPattern(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return out
}

// aggregates are order-insensitive: map writes, sums, max.
func aggregates(m map[string]int) (int, map[string]int) {
	total := 0
	copied := map[string]int{}
	for k, v := range m {
		total += v
		copied[k] = v
	}
	return total, copied
}

// localAccumulation appends only to slices scoped to the iteration, so
// no cross-iteration order leaks out.
func localAccumulation(m map[string][]int) map[string]int {
	out := map[string]int{}
	for k, vs := range m {
		var doubled []int
		for _, v := range vs {
			doubled = append(doubled, 2*v)
		}
		out[k] = len(doubled)
	}
	return out
}

// annotated proves the escape hatch.
func annotated(m map[string]int) []string {
	var out []string
	for k := range m { //lint:allow maporder(fixture: order genuinely does not matter to the caller)
		out = append(out, k)
	}
	return out
}

func aggregateObjective(energy, delay float64) float64 { return energy * delay }

// mapOrderObjective is the per-model objective sum as it once stood in
// evaluateHardware: the total's last bits depended on map order.
func mapOrderObjective(perModelEnergy, perModelDelay map[string]float64) float64 {
	var total float64
	for m := range perModelEnergy { // want "map iteration accumulates floats into total"
		total += aggregateObjective(perModelEnergy[m], perModelDelay[m])
	}
	return total
}

// floatUpdates covers the other accumulating forms.
func floatUpdates(m map[string]float64) (float64, float32) {
	prod := 1.0
	for _, v := range m { // want "map iteration accumulates floats into prod"
		prod = prod * v
	}
	var acc struct{ sum float32 }
	for _, v := range m { // want "map iteration accumulates floats into acc.sum"
		acc.sum -= float32(v)
	}
	return prod, acc.sum
}

// orderFreeFloats stays silent: an integer sum, a float max, a per-key
// map write, and a float accumulator scoped to one iteration.
func orderFreeFloats(m map[string][]float64) (int, float64, map[string]float64) {
	n := 0
	mx := 0.0
	sums := map[string]float64{}
	for k, vs := range m {
		n += len(vs)
		var s float64
		for _, v := range vs {
			s += v
			if v > mx {
				mx = v
			}
		}
		sums[k] += s
	}
	return n, mx, sums
}
