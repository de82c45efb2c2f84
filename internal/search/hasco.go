package search

import (
	"math"
	"math/rand"

	"spotlight/internal/core"
	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// HASCO reimplements the search structure of HASCO (Xiao et al., ISCA
// 2021) as the paper characterizes it: Bayesian optimization over the
// hardware parameters (off-the-shelf, i.e. trained on raw parameters with
// a Matérn kernel) combined with a Q-learning agent that picks among a
// small set of fixed software schedule templates. Like ConfuciuX, it
// searches neither tile sizes nor loop orders.
type HASCO struct{}

// The Q-learning agent's exploration rate ε and step size α.
const (
	qExplore = 0.3
	qStep    = 0.5
)

// NewHASCO returns the HASCO-like strategy.
func NewHASCO() *HASCO { return &HASCO{} }

// Name implements core.Strategy.
func (*HASCO) Name() string { return "HASCO" }

// SWBudget implements core.Strategy: a handful of template evaluations
// per layer, enough for the Q-agent to rank the three templates.
func (*HASCO) SWBudget(core.RunConfig) int { return 4 }

// NewHW implements core.Strategy: vanilla BO over raw hardware
// parameters with a Matérn kernel — the off-the-shelf configuration the
// related-work section attributes to prior tools.
func (*HASCO) NewHW(cfg core.RunConfig, rng *rand.Rand) core.HWProposer {
	const batch = 64
	features := core.FeaturesFor(core.FeatureVanilla, true)
	h := &hascoHW{
		dabo:     core.NewDABO(gp.Matern52{LengthScale: 1, Variance: 1}, rng),
		features: features,
		space:    cfg.Space,
		rng:      rng,
		cands:    make([]hw.Accel, batch),
		rows:     make([][]float64, batch),
		row:      make([]float64, len(features.Names)),
	}
	for i := range h.rows {
		h.rows[i] = make([]float64, len(features.Names))
	}
	return h
}

// hascoHW owns its candidate batch and its feature rows: Suggest
// overwrites all of them every call, and daBO copies an observed row.
type hascoHW struct {
	dabo     *core.DABO
	features core.FeatureSet
	space    hw.Space
	rng      *rand.Rand
	cands    []hw.Accel
	rows     [][]float64 // the candidates' features
	row      []float64   // the observed point's features
	pt       core.Point
}

func (h *hascoHW) Suggest() hw.Accel {
	for i := range h.cands {
		h.cands[i] = restrictedRandom(h.rng, h.space)
		h.pt.Accel = h.cands[i]
		core.TransformTo(h.rows[i], h.features, &h.pt)
	}
	return h.cands[h.dabo.SuggestIndex(h.rows)]
}

// restrictedRandom samples the resource-assignment subspace the prior
// tools search — PE count and buffer sizes — with the remaining
// microarchitecture parameters fixed at representative defaults, like
// ConfuciuX's decode.
func restrictedRandom(rng *rand.Rand, s hw.Space) hw.Accel {
	pes := s.PEMin + rng.Intn(s.PEMax-s.PEMin+1)
	a := hw.Accel{
		PEs:       pes,
		SIMDLanes: s.SIMDMin,
		RFKB:      snapStride(s.RFMinKB+rng.Intn(s.RFMaxKB-s.RFMinKB+1), s.RFMinKB, s.RFStride),
		L2KB:      snapStride(s.L2MinKB+rng.Intn(s.L2MaxKB-s.L2MinKB+1), s.L2MinKB, s.L2Stride),
		NoCBW:     (s.BWMin + s.BWMax) / 2,
	}
	a.Width = nearestDivisor(pes, math.Sqrt(float64(pes)))
	return a
}

func (h *hascoHW) Observe(a hw.Accel, objective float64, err error) {
	h.pt.Accel = a
	f := h.row
	core.TransformTo(f, h.features, &h.pt)
	if core.InvalidObservation(objective, err) {
		h.dabo.ObserveInvalid(f)
		return
	}
	h.dabo.Observe(f, objective)
}

// NewSW implements core.Strategy: an ε-greedy Q-learning agent over the
// three schedule templates. Templates are tiled for reference buffers,
// not the sampled hardware — HASCO does not co-design tiling (§VII-A) —
// so each template's sampler is built once for the layer.
func (*HASCO) NewSW(cfg core.RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) core.SWProposer {
	flows := templateSamplers(l)
	return &hascoSW{
		rng:    rng,
		flows:  flows,
		q:      make([]float64, len(flows)),
		visits: make([]int, len(flows)),
	}
}

type hascoSW struct {
	rng    *rand.Rand
	flows  []*sched.Sampler
	q      []float64
	visits []int
	last   int
}

func (w *hascoSW) Suggest() sched.Schedule {
	// Visit every template once, then go ε-greedy on Q.
	w.last = -1
	for i, v := range w.visits {
		if v == 0 {
			w.last = i
			break
		}
	}
	if w.last == -1 {
		if w.rng.Float64() < qExplore {
			w.last = w.rng.Intn(len(w.flows))
		} else {
			w.last = argmax(w.q)
		}
	}
	return w.flows[w.last].Random(w.rng)
}

func (w *hascoSW) Observe(_ sched.Schedule, objective float64, err error) {
	reward := -50.0
	if !core.InvalidObservation(objective, err) {
		reward = -math.Log(math.Max(objective, math.SmallestNonzeroFloat64))
	}
	w.visits[w.last]++
	w.q[w.last] += qStep * (reward - w.q[w.last])
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
