package sched_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/sim"
	"spotlight/internal/timeloop"
	"spotlight/internal/workload"
)

// geometryTriple is one (accelerator, schedule, layer) point of the
// geometry golden set.
type geometryTriple struct {
	a hw.Accel
	s sched.Schedule
	l workload.Layer
}

// geometryTriples draws the golden set: accelerators from the edge or
// the cloud space, Free or fixed-dataflow schedules, layers from the
// five models. Schedules draw against buffers twice the accelerator's,
// so some overflow the RF or the scratchpad, and every 16th is made
// structurally invalid (T2[K] does not divide K): every verdict the
// models give is in the set.
func geometryTriples(n int) []geometryTriple {
	rng := rand.New(rand.NewSource(35))
	spaces := []hw.Space{hw.EdgeSpace(), hw.CloudSpace()}
	models := workload.Models()
	constraints := append([]sched.Constraint{sched.Free(), sched.Free()}, sched.FixedDataflows()...)
	out := make([]geometryTriple, n)
	for i := range out {
		a := spaces[rng.Intn(len(spaces))].Random(rng)
		m := models[rng.Intn(len(models))]
		l := m.Layers[rng.Intn(len(m.Layers))]
		c := constraints[rng.Intn(len(constraints))]
		s := c.Random(rng, l, 2*a.RFBytesPerPE(), 2*a.L2Bytes())
		if i%16 == 15 {
			s.T2[workload.DimK] = l.K + 1
		}
		out[i] = geometryTriple{a, s, l}
	}
	return out
}

func hashF(h io.Writer, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashI(h io.Writer, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func hashVerdict(h io.Writer, err error) {
	if err == nil {
		io.WriteString(h, "ok\n")
		return
	}
	io.WriteString(h, err.Error()+"\n")
}

func hashCost(h io.Writer, c maestro.Cost, err error) {
	binary.Write(h, binary.LittleEndian, c)
	hashVerdict(h, err)
}

func hashTrace(h io.Writer, tr sim.Trace, err error) {
	hashI(h, int64(tr.Iterations))
	hashI(h, tr.Fetches[:]...)
	hashI(h, tr.Hits[:]...)
	hashF(h, tr.DRAMReadBytes, tr.DRAMWriteBytes)
	hashVerdict(h, err)
}

// TestGeometryGolden pins, bit for bit, everything the loop-nest
// geometry feeds: both analytical models, the simulator with one
// working set and with the full scratchpad, the tile footprints and
// Spotlight's Figure 4 software features, over about 2,000 seeded
// triples. One digest per consumer: a change to the shared tiles, dependence
// sets or array fold that alters any cost, trace, footprint or feature
// value, or any verdict text, changes that consumer's digest.
func TestGeometryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64")
	}
	triples := geometryTriples(2000)
	mm, tm := maestro.New(), timeloop.New()
	fs := core.SoftwareFeatures()
	row := make([]float64, len(fs))
	// The walk is linear in the outer iterations; nests above the bound
	// hash their ErrTooLarge verdict.
	simOpts := sim.Options{MaxIterations: 2e4}
	digests := map[string]hash.Hash{}
	for _, k := range []string{"maestro", "timeloop", "sim-single", "sim-full", "footprint", "features"} {
		digests[k] = sha256.New()
	}
	var valid, walked int
	for _, tr := range triples {
		var costs [1]maestro.Cost
		var errs [1]error
		mm.EvaluateTo(tr.a, []sched.Schedule{tr.s}, tr.l, costs[:], errs[:])
		hashCost(digests["maestro"], costs[0], errs[0])
		if errs[0] == nil {
			valid++
		}

		c, err := tm.Evaluate(tr.a, tr.s, tr.l)
		hashCost(digests["timeloop"], c, err)

		single := simOpts
		single.SingleWorkingSet = true
		trace, err := sim.Simulate(tr.a, tr.s, tr.l, single)
		hashTrace(digests["sim-single"], trace, err)
		if err == nil {
			walked++
		}
		trace, err = sim.Simulate(tr.a, tr.s, tr.l, simOpts)
		hashTrace(digests["sim-full"], trace, err)

		hashI(digests["footprint"], sched.TileFootprint(tr.l, tr.s.T1), sched.TileFootprint(tr.l, tr.s.T2))

		p := core.Point{Accel: tr.a, Sched: tr.s, Layer: tr.l}
		core.TransformTo(row, fs, &p)
		hashF(digests["features"], row...)
	}
	t.Logf("%d of %d triples valid under maestro, %d simulated", valid, len(triples), walked)
	want := map[string]string{
		"maestro":    "dd93e44e488885beb9fd12d743cbcb109efc8743d6c49ca82f0d59a92520c72e",
		"timeloop":   "6d63fc71abf4c4937dd3e7757a484ec9b4f3ae75d5a8e5eb319ad560d9aec02d",
		"sim-single": "d9229e47eec2815b938f4e85f8e9c3fb12c6b7c13316072612ae8ad4f899c839",
		"sim-full":   "7bf77e44aa046c1829c7c8acc0fa1f025b6ad3d68f11864771e34c22fd395e7b",
		"footprint":  "c7e7e219e441f5d8ccc6af071a9886cb3e23b8453701640a8518cb880cd244e4",
		"features":   "874c975aba316de6d6a18820f3424531eceede37ae9ec1a62ace2d8d0444ddaf",
	}
	for k, h := range digests {
		if got := hex.EncodeToString(h.Sum(nil)); got != want[k] {
			t.Errorf("%s digest = %s, want %s", k, got, want[k])
		}
	}
}
