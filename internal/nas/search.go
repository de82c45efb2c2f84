package nas

import (
	"fmt"
	"math"
	"math/rand"

	"spotlight/internal/core"
	"spotlight/internal/gp"
	"spotlight/internal/xrand"
)

// SearchConfig configures the joint hardware/software/model search.
type SearchConfig struct {
	// CoDesign is the Spotlight configuration applied to each candidate
	// architecture (Models is overwritten per candidate).
	CoDesign core.RunConfig
	// QualityFloor rejects architectures whose quality proxy falls
	// below it (default 0.6).
	QualityFloor float64
	// ArchSamples is how many architectures the outer daBO evaluates
	// (default 12; each costs one full co-design run).
	ArchSamples int
	Seed        int64
}

// archBatch is the number of random architectures ranked by the
// acquisition function per outer-search suggestion.
const archBatch = 32

// Candidate is one evaluated architecture with its co-designed hardware.
type Candidate struct {
	Arch      Arch
	Quality   float64
	Objective float64 // hardware objective of the co-designed accelerator
	Design    core.Design
}

// SearchResult is the outcome of a joint search.
type SearchResult struct {
	Best      Candidate
	Evaluated []Candidate // every architecture meeting the floor, in search order
	Rejected  int         // architectures below the quality floor
}

// archFeatures is the outer daBO's feature space over architectures:
// the raw parameters plus the domain quantities that predict cost and
// quality (log MACs and the proxy itself).
func archFeatures(a Arch) ([]float64, error) {
	m, err := a.Model()
	if err != nil {
		return nil, err
	}
	q, err := QualityProxy(a)
	if err != nil {
		return nil, err
	}
	return []float64{
		a.WidthMult,
		float64(a.Depth),
		float64(a.KernelSize),
		float64(a.Resolution),
		math.Log(float64(m.TotalMACs())),
		q,
	}, nil
}

// Search runs the joint exploration: an outer daBO proposes
// architectures; each is lowered to CONV layers, co-designed by the full
// nested Spotlight flow, and scored by the hardware objective; proposals
// below the quality floor (or with no feasible hardware) are recorded as
// invalid, teaching the outer surrogate the feasible frontier.
func Search(cfg SearchConfig) (SearchResult, error) {
	if cfg.QualityFloor <= 0 {
		cfg.QualityFloor = 0.6
	}
	if cfg.ArchSamples <= 0 {
		cfg.ArchSamples = 12
	}
	rng := xrand.New(cfg.Seed)
	dabo := core.NewDABO(gp.Linear{Bias: 1}, rng, core.WithWarmup(4))

	res := SearchResult{}
	res.Best.Objective = math.Inf(1)
	for t := 0; t < cfg.ArchSamples; t++ {
		arch, feats := suggestArch(dabo, rng)

		quality, err := QualityProxy(arch)
		if err != nil {
			dabo.ObserveInvalid(feats)
			continue
		}
		if quality < cfg.QualityFloor {
			res.Rejected++
			dabo.ObserveInvalid(feats)
			continue
		}
		model, err := arch.Model()
		if err != nil {
			dabo.ObserveInvalid(feats)
			continue
		}
		rc := cfg.CoDesign
		rc.Models = nil
		rc.Models = append(rc.Models, model)
		rc.Seed = cfg.Seed + int64(t)*104729
		run, err := core.Run(rc, core.NewSpotlight())
		if err != nil {
			dabo.ObserveInvalid(feats)
			continue
		}
		cand := Candidate{
			Arch:      arch,
			Quality:   quality,
			Objective: run.Best.Objective,
			Design:    run.Best,
		}
		res.Evaluated = append(res.Evaluated, cand)
		dabo.Observe(feats, run.Best.Objective)
		if cand.Objective < res.Best.Objective {
			res.Best = cand
		}
	}
	if math.IsInf(res.Best.Objective, 1) {
		return res, fmt.Errorf("%w: no architecture met quality floor %.2f in %d samples",
			core.ErrNoFeasible, cfg.QualityFloor, cfg.ArchSamples)
	}
	return res, nil
}

// suggestArch samples a candidate batch and lets the outer daBO pick.
func suggestArch(dabo *core.DABO, rng *rand.Rand) (Arch, []float64) {
	archs := make([]Arch, 0, archBatch)
	feats := make([][]float64, 0, archBatch)
	for len(archs) < archBatch {
		a := RandomArch(rng)
		f, err := archFeatures(a)
		if err != nil {
			continue
		}
		archs = append(archs, a)
		feats = append(feats, f)
	}
	idx := dabo.SuggestIndex(feats)
	return archs[idx], feats[idx]
}
