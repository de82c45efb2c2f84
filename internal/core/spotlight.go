package core

import (
	"math/rand"
	"sync"

	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
	"spotlight/internal/xrand"
)

// Spotlight is the paper's co-design strategy (§VI): daBO over the
// hardware space nested with daBO over each layer's software space, both
// searching in feature space with a linear-kernel Gaussian process
// surrogate. Its fields select the ablation variants of §VII-D/E.
type Spotlight struct {
	// Mode selects the feature set: FeatureSpotlight (the paper's
	// Figure 4 features), FeatureVanilla (Spotlight-V) or FeatureAll
	// (Spotlight-A).
	Mode FeatureMode
	// Kernel overrides the surrogate kernel; nil means the paper's
	// linear kernel.
	Kernel gp.Kernel
	// FixedDataflows restricts the software space to the three
	// ConfuciuX dataflows with K/C tiling only (Spotlight-F).
	FixedDataflows bool
}

// NewSpotlight returns the full Spotlight configuration.
func NewSpotlight() *Spotlight { return &Spotlight{} }

// NewSpotlightV returns Spotlight-V: identical machinery but the
// surrogate is trained directly on raw parameters — off-the-shelf BO.
func NewSpotlightV() *Spotlight { return &Spotlight{Mode: FeatureVanilla} }

// NewSpotlightA returns Spotlight-A: the union of features and raw
// parameters.
func NewSpotlightA() *Spotlight { return &Spotlight{Mode: FeatureAll} }

// NewSpotlightF returns Spotlight-F: the feature space over the three
// fixed dataflows with tiling searched only in K and C.
func NewSpotlightF() *Spotlight { return &Spotlight{FixedDataflows: true} }

// Name implements Strategy, matching the labels of Figure 10.
func (s *Spotlight) Name() string {
	switch {
	case s.FixedDataflows:
		return "Spotlight-F"
	case s.Mode == FeatureVanilla:
		return "Spotlight-V"
	case s.Mode == FeatureAll:
		return "Spotlight-A"
	default:
		return "Spotlight"
	}
}

func (s *Spotlight) kernel() gp.Kernel {
	if s.Kernel != nil {
		return s.Kernel
	}
	return gp.Linear{Bias: 1}
}

// The acquisition settings of §V: each suggestion ranks spotlightBatch
// random parameter-space candidates by LCB with exploration weight
// spotlightKappa.
const (
	spotlightBatch = 64
	spotlightKappa = 1.5
)

// SWBudget implements Strategy: Spotlight spends the full configured
// software budget.
func (s *Spotlight) SWBudget(cfg RunConfig) int { return cfg.SWSamples }

// NewHW implements Strategy.
func (s *Spotlight) NewHW(cfg RunConfig, rng *rand.Rand) HWProposer {
	features := FeaturesFor(s.Mode, true)
	return &spotlightHW{
		dabo: NewDABO(s.kernel(), rng, WithKappa(spotlightKappa), WithTracer(cfg.Tracer, "hw"),
			withCapacity(cfg.HWSamples)),
		features: features,
		space:    cfg.Space,
		budget:   cfg.Budget,
		rng:      rng,
		row:      make([]float64, len(features)),
	}
}

// candidateBatch is the working set of one scored Suggest: n
// parameter-space points, one flat n×d feature buffer whose rows are
// views handed to DABO.suggestIndex, the surrogate's n predictions, the
// sampler each software point was drawn from, and the memo lg reads
// while a software batch is featurized. Nothing in it outlives the
// call, so Suggest borrows it from a batchPool and a proposer keeps
// only its d-length observation row. The memo is exact whatever earlier
// borrowers stored in it.
type candidateBatch[T any] struct {
	points      []T
	rows        [][]float64
	means, stds []float64
	from        []uint8    // software batches only: each point's sampler
	logs        *log1pMemo // allocated by the first Suggest that scores the batch
}

// batchPool lends candidate batches to Suggest calls, so the searches a
// process runs share a few batches instead of allocating one each.
type batchPool[T any] struct{ p sync.Pool }

var (
	hwBatches batchPool[hw.Accel]
	swBatches batchPool[sched.Schedule]
)

// get returns a batch of n points with d features each. Its contents
// are whatever the previous borrower left: Suggest overwrites every
// point, and every row it lets the surrogate read.
func (bp *batchPool[T]) get(n, d int) *candidateBatch[T] {
	c, _ := bp.p.Get().(*candidateBatch[T])
	if c == nil || len(c.points) != n || len(c.rows[0]) != d {
		c = &candidateBatch[T]{
			points: make([]T, n),
			rows:   make([][]float64, n),
			means:  make([]float64, n),
			stds:   make([]float64, n),
			from:   make([]uint8, n),
		}
		flat := make([]float64, n*d)
		for i := range c.rows {
			c.rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
		}
	}
	return c
}

func (bp *batchPool[T]) put(c *candidateBatch[T]) { bp.p.Put(c) }

type spotlightHW struct {
	dabo     *DABO
	features []Feature
	space    hw.Space
	budget   hw.Budget
	rng      *rand.Rand
	row      []float64 // the observed point's features (DABO copies them)
	pt       Point
}

// Suggest ranks a batch of random candidates on the surrogate. When the
// surrogate does not score (warmup, see DABO.ScoresCandidates), a
// uniform pick from a random batch is one random candidate, so Suggest
// draws just one.
func (h *spotlightHW) Suggest() hw.Accel {
	if !h.dabo.ScoresCandidates() {
		h.dabo.drewAtRandom()
		return h.draw()
	}
	b := hwBatches.get(spotlightBatch, len(h.features))
	defer hwBatches.put(b)
	cands := b.points
	for i := range cands {
		cands[i] = h.draw()
		h.pt.Accel = cands[i]
		TransformTo(b.rows[i], h.features, &h.pt)
	}
	return cands[h.dabo.suggestIndex(b.rows, b.means, b.stds)]
}

// draw samples one candidate. The area and power budget is known a
// priori, so a candidate exceeding it is resampled — using explicit
// constraints to steer sampling is exactly the kind of domain
// information §IV-B1 calls for (the cloud space in particular is >90%
// over budget). If the budget is unattainable within the retry
// allowance, the raw sample is kept and the cost model will reject it.
func (h *spotlightHW) draw() hw.Accel {
	a := h.space.Random(h.rng)
	for retry := 0; retry < 16 && !h.budget.Fits(a); retry++ {
		a = h.space.Random(h.rng)
	}
	return a
}

// SetSpan implements SpanCarrier by forwarding to the embedded daBO, so
// hw-scope fit events land under the driver's hw.propose span.
func (h *spotlightHW) SetSpan(sp *obs.Span) { h.dabo.SetSpan(sp) }

func (h *spotlightHW) Observe(a hw.Accel, objective float64, err error) {
	h.pt.Accel = a
	f := h.row
	TransformTo(f, h.features, &h.pt)
	if InvalidObservation(objective, err) {
		h.dabo.ObserveInvalid(f)
		return
	}
	h.dabo.Observe(f, objective)
}

// NewSW implements Strategy. It readies the proposer's search context
// for this (accelerator, layer) pair once: a schedule sampler per
// constraint, holding the layer's tiling tables and heuristic tiles,
// and the layer's extents and the array height for featurization. The
// candidate batch is borrowed per Suggest, not owned.
//
// In a run the driver hands NewSW the layer's slot (RunConfig.slot),
// and NewSW resets the proposer it left there for the previous hardware
// sample instead of building another. Without a slot, or on the slot's
// first use, it builds one; either way the proposer goes through the
// same reset.
func (s *Spotlight) NewSW(cfg RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) SWProposer {
	sl := cfg.slot
	var sw *spotlightSW
	if sl != nil && sl.sw != nil && sl.sw.owner == s {
		sw = sl.sw
	} else {
		features := FeaturesFor(s.Mode, false)
		sw = &spotlightSW{
			owner:      s,
			dabo:       NewDABO(s.kernel(), rng, WithKappa(spotlightKappa)),
			features:   features,
			readsOrder: readsOrder(features),
			row:        make([]float64, len(features)),
		}
		if s.FixedDataflows {
			for _, df := range sched.FixedDataflows() {
				sw.fixed = append(sw.fixed, sched.SpotlightF(df))
			}
		}
		sw.samplers = make([]sched.Sampler, max(len(sw.fixed), 1))
		if sl != nil {
			sl.sw = sw
		}
	}
	sw.reset(cfg, rng, a, l)
	return sw
}

type spotlightSW struct {
	owner    *Spotlight
	dabo     *DABO
	features []Feature
	// readsOrder is set when a feature reads a loop order; otherwise a
	// scored Suggest draws orders only for the candidate it returns.
	readsOrder bool
	// fixed holds Spotlight-F's three constraints; nil means the run's
	// software constraint.
	fixed    []sched.Constraint
	samplers []sched.Sampler // one per constraint
	rng      *rand.Rand
	row      []float64 // the observed point's features (DABO copies them)
	// pt carries the proposer's accelerator and layer, and the layer's
	// extents and the array height in pt.cached. Suggest and Observe set
	// only its schedule (and Suggest its trip counts) before featurizing.
	pt Point
}

// reset readies w, new or used, for the search of layer l on
// accelerator a driven by rng, leaving it in the state a new proposer
// starts from. It keeps w's features, row and sampler storage and its
// daBO's buffers, so a used proposer allocates nothing here.
func (w *spotlightSW) reset(cfg RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) {
	w.rng = rng
	d := w.dabo
	d.reset(rng)
	d.tracer, d.scope, d.capacity = cfg.Tracer, "sw", w.owner.SWBudget(cfg)
	w.pt = Point{Accel: a, Layer: l}
	w.pt.cached.sizes = l.Sizes()
	w.pt.cached.height = a.Height()
	rf, l2 := a.RFBytesPerPE(), a.L2Bytes()
	if w.fixed == nil {
		cfg.SWConstraint.SamplerTo(&w.samplers[0], l, rf, l2)
	}
	for i := range w.fixed {
		w.fixed[i].SamplerTo(&w.samplers[i], l, rf, l2)
	}
}

// Suggest draws a batch of random schedules and returns the one the
// surrogate ranks best. Each candidate is featurized as it is drawn,
// from the trip counts its sampler read off the tiling tables. When no
// feature reads a loop order, the candidates' orders cannot change the
// ranking, so only the returned candidate draws them, after the argmin;
// its orders stay uniform and independent of its tiles. When the
// surrogate does not score (warmup, see DABO.ScoresCandidates), a
// uniform pick from a random batch is one random schedule, so Suggest
// draws just one.
func (w *spotlightSW) Suggest() sched.Schedule {
	if !w.dabo.ScoresCandidates() {
		w.dabo.drewAtRandom()
		var s sched.Schedule
		w.samplers[xrand.IntN(w.rng, len(w.samplers))].RandomTo(w.rng, &s)
		return s
	}
	b := swBatches.get(spotlightBatch, len(w.features))
	defer swBatches.put(b)
	cands, p := b.points, &w.pt
	if b.logs == nil {
		b.logs = new(log1pMemo)
	}
	p.logs = b.logs
	for i := range cands {
		k := xrand.IntN(w.rng, len(w.samplers))
		b.from[i] = uint8(k)
		w.samplers[k].TilesTo(w.rng, &cands[i], &p.cached.outer, &p.cached.inner)
		if w.readsOrder {
			w.samplers[k].OrdersTo(w.rng, &cands[i])
		}
		p.Sched = cands[i]
		p.transform(b.rows[i], w.features, true)
	}
	p.logs = nil
	i := w.dabo.suggestIndex(b.rows, b.means, b.stds)
	if !w.readsOrder {
		w.samplers[b.from[i]].OrdersTo(w.rng, &cands[i])
	}
	return cands[i]
}

// SetSpan implements SpanCarrier by forwarding to the embedded daBO, so
// sw-scope fit events land under the enclosing sw.layer span.
func (w *spotlightSW) SetSpan(sp *obs.Span) { w.dabo.SetSpan(sp) }

func (w *spotlightSW) Observe(s sched.Schedule, objective float64, err error) {
	w.pt.Sched = s
	f := w.row
	TransformTo(f, w.features, &w.pt)
	if InvalidObservation(objective, err) {
		w.dabo.ObserveInvalid(f)
		return
	}
	w.dabo.Observe(f, objective)
}

// SWImportance computes the permutation importance of each software
// feature on a Spotlight SW proposer's surrogate, such as OptimizeLayer
// returns (Figure 9): feature names and raw (unnormalized) importances,
// or false when sw is not Spotlight's or has no surrogate.
func SWImportance(sw SWProposer, rng *rand.Rand) ([]string, []float64, bool) {
	w, ok := sw.(*spotlightSW)
	if !ok {
		return nil, nil, false
	}
	model := w.dabo.Surrogate()
	if model == nil {
		return nil, nil, false
	}
	imp, err := PermutationImportance(model, w.dabo.ValidObservations(), rng)
	if err != nil {
		return nil, nil, false
	}
	return Names(w.features), imp, true
}
