// Package sim is a trace-driven simulator of the accelerator's
// DRAM↔scratchpad traffic: it walks the schedule's outer loop nest
// iteration by iteration, modeling the L2 scratchpad as an LRU cache of
// tensor tiles with dirty-output writeback. Its tiles, their bytes and
// the tensors' dependence sets are internal/sched's, the ones the
// analytical models charge for; what it adds is the walk and the cache.
// It serves two purposes:
//
//  1. Validation: with the scratchpad restricted to a single working
//     set, the simulated fetch counts must equal the analytical model's
//     stationarity-rule fills exactly — a ground-truth check on
//     internal/maestro (the role RTL validation plays for MAESTRO).
//  2. Extension: with the full scratchpad capacity, the simulator
//     quantifies the reuse a multi-tile cache would add over the
//     analytical single-working-set assumption — the "more costly but
//     more accurate evaluation backend" direction of the paper's §VIII.
//
// Simulation cost is linear in the outer iteration count, so it is for
// small-to-medium layers; Simulate rejects nests above MaxIterations.
package sim

import (
	"container/list"
	"errors"
	"fmt"

	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Options bounds and configures a simulation.
type Options struct {
	// MaxIterations rejects outer loop nests with more iterations
	// (default 4e6).
	MaxIterations float64
	// SingleWorkingSet restricts the scratchpad to exactly one tile per
	// tensor, matching the analytical model's residency assumption. When
	// false the full L2 capacity is used as an LRU tile cache.
	SingleWorkingSet bool
}

// Trace is the result of simulating a schedule's DRAM-level behavior.
type Trace struct {
	Iterations int // outer loop iterations walked

	Fetches [sched.NumTensors]int64 // per-tensor tile fetches from DRAM
	Hits    [sched.NumTensors]int64 // per-tensor scratchpad hits

	DRAMReadBytes  float64
	DRAMWriteBytes float64 // dirty output writebacks, including the final flush
}

// DRAMBytes is the total off-chip traffic.
func (t Trace) DRAMBytes() float64 { return t.DRAMReadBytes + t.DRAMWriteBytes }

// ErrTooLarge reports an outer loop nest beyond Options.MaxIterations.
var ErrTooLarge = errors.New("sim: loop nest too large to walk")

// tileKey identifies one resident tile.
type tileKey struct {
	tensor sched.Tensor
	id     int64
}

// cacheEntry is one scratchpad-resident tile.
type cacheEntry struct {
	key   tileKey
	bytes int64
	dirty bool
}

// lruCache is the scratchpad model: byte-capacity LRU over tiles.
type lruCache struct {
	capacity int64
	used     int64
	order    *list.List // front = most recent; values are *cacheEntry
	index    map[tileKey]*list.Element

	writebackBytes int64
}

func newLRU(capacity int64) *lruCache {
	return &lruCache{capacity: capacity, order: list.New(), index: map[tileKey]*list.Element{}}
}

// touch accesses a tile, returning true on hit. On miss the tile is
// fetched (evicting LRU tiles as needed, accumulating writebacks for
// dirty ones).
func (c *lruCache) touch(key tileKey, bytes int64, dirty bool) bool {
	if el, ok := c.index[key]; ok {
		c.order.MoveToFront(el)
		if dirty {
			el.Value.(*cacheEntry).dirty = true
		}
		return true
	}
	for c.used+bytes > c.capacity && c.order.Len() > 0 {
		back := c.order.Back()
		e := back.Value.(*cacheEntry)
		if e.dirty {
			c.writebackBytes += e.bytes
		}
		c.used -= e.bytes
		delete(c.index, e.key)
		c.order.Remove(back)
	}
	e := &cacheEntry{key: key, bytes: bytes, dirty: dirty}
	c.index[key] = c.order.PushFront(e)
	c.used += bytes
	return false
}

// flushDirty writes back every dirty resident tile.
func (c *lruCache) flushDirty() {
	for el := c.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.dirty {
			c.writebackBytes += e.bytes
			e.dirty = false
		}
	}
}

// Simulate walks the DRAM-level loop nest of the schedule and returns
// the traffic trace. The accelerator contributes only its scratchpad
// capacity; compute and on-chip traffic are below this level.
func Simulate(a hw.Accel, s sched.Schedule, l workload.Layer, opts Options) (Trace, error) {
	if err := a.Validate(); err != nil {
		return Trace{}, err
	}
	if err := l.Validate(); err != nil {
		return Trace{}, err
	}
	if err := s.Validate(l); err != nil {
		return Trace{}, err
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 4e6
	}

	trips := s.OuterTrips(l)
	total := 1.0
	for _, n := range trips {
		total *= float64(n)
	}
	if total > opts.MaxIterations {
		return Trace{}, fmt.Errorf("%w: %.3g iterations > bound %.3g", ErrTooLarge, total, opts.MaxIterations)
	}

	tileBytes := sched.TileBytes(&l, &s.T2)
	workingSet := tileBytes.Total()
	capacity := a.L2Bytes()
	if opts.SingleWorkingSet {
		capacity = workingSet
	}
	if capacity < workingSet {
		return Trace{}, fmt.Errorf("sim: T2 working set (%d B) exceeds scratchpad (%d B)",
			workingSet, capacity)
	}
	cache := newLRU(capacity)

	// Walk the nest in the schedule's outer order; idx holds the loop
	// counter of each dimension (by canonical dim index).
	var idx [workload.NumDims]int
	var trace Trace
	for {
		trace.Iterations++
		for tensor := sched.TensorInput; tensor < sched.NumTensors; tensor++ {
			id := tileID(idx, trips, tensor)
			dirty := tensor == sched.TensorOutput
			if cache.touch(tileKey{tensor, id}, tileBytes[tensor], dirty) {
				trace.Hits[tensor]++
			} else {
				trace.Fetches[tensor]++
				trace.DRAMReadBytes += float64(tileBytes[tensor])
			}
		}
		if !advance(&idx, s.OuterOrder, trips) {
			break
		}
	}
	cache.flushDirty()
	// A freshly produced output tile's first fetch has nothing useful to
	// read from DRAM; its "fetch" allocates space only. Remove those
	// reads: each distinct output tile's first touch is an allocation.
	distinctOut := sched.TensorOutput.DistinctTiles(trips)
	trace.DRAMReadBytes -= float64(distinctOut * tileBytes[sched.TensorOutput])
	trace.DRAMWriteBytes = float64(cache.writebackBytes)
	return trace, nil
}

// advance increments the loop nest's counters in the given order
// (innermost first), returning false when the nest completes.
func advance(idx *[workload.NumDims]int, order [workload.NumDims]workload.Dim, trips [workload.NumDims]int) bool {
	for i := workload.NumDims - 1; i >= 0; i-- {
		d := order[i]
		idx[d]++
		if idx[d] < trips[d] {
			return true
		}
		idx[d] = 0
	}
	return false
}

// tileID flattens the dependent loop counters into a tile identifier.
func tileID(idx, trips [workload.NumDims]int, t sched.Tensor) int64 {
	var id int64
	for i, d := range workload.AllDims {
		if t.Depends(d) {
			id = id*int64(trips[i]) + int64(idx[i])
		}
	}
	return id
}
