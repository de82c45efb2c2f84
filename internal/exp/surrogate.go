package exp

import (
	"context"
	"fmt"
	"math"

	"spotlight/internal/core"
	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/stats"
	"spotlight/internal/workload"
)

// SurrogateResult is the §VII-D surrogate accuracy experiment: the
// Spearman rank correlation between predicted and true costs on a
// held-out test set, and the fraction of the true top quintile that the
// surrogate also places in its predicted top quintile, for both the
// linear and the Matérn kernel. The paper reports ρ ≈ 0.08–0.11 with
// ~24% of the top 20% correctly identified — low correlation that is
// nonetheless sufficient for the acquisition function.
type SurrogateResult struct {
	Kernel      string
	SpearmanEDP float64
	SpearmanDel float64
	TopQuintile float64 // overlap of predicted vs true top 20% (EDP)
	TrainSize   int
	TestSize    int
}

// SurrogateAccuracy runs the experiment on `samples` random co-design
// points of a mid ResNet-50 layer (train on 90%, test on 10%).
func SurrogateAccuracy(ctx context.Context, cfg Config, samples int) ([]SurrogateResult, error) {
	cfg = cfg.normalized()
	if samples < 50 {
		samples = 50
	}
	scale, err := hw.ScaleByName(cfg.Scale)
	if err != nil {
		return nil, err
	}
	layer := workload.ResNet50().Layers[6] // a mid-network 3x3
	features := core.SoftwareFeatures()
	free := sched.Free()
	rng := cfg.rngFor(13)

	var x [][]float64
	var edp, delay []float64
	for len(x) < samples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a := scale.Space.Random(rng)
		s := free.Random(rng, layer, a.RFBytesPerPE(), a.L2Bytes())
		c, err := cfg.Eval.Evaluate(a, s, layer)
		if err != nil {
			continue
		}
		p := core.Point{Accel: a, Sched: s, Layer: layer}
		x = append(x, core.Transform(features, p))
		edp = append(edp, c.EDP())
		delay = append(delay, c.DelayCycles)
	}

	split := samples * 9 / 10
	kernels := []gp.Kernel{gp.Linear{Bias: 1}, gp.Matern52{LengthScale: 1, Variance: 1}}
	var out []SurrogateResult
	for _, k := range kernels {
		r, err := evalKernel(k, x, edp, delay, split)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func evalKernel(k gp.Kernel, x [][]float64, edp, delay []float64, split int) (SurrogateResult, error) {
	res := SurrogateResult{Kernel: k.Name(), TrainSize: split, TestSize: len(x) - split}

	predict := func(target []float64) ([]float64, error) {
		// Targets are fit in log space, mirroring daBO.
		logT := make([]float64, split)
		for i := range logT {
			logT[i] = logOf(target[i])
		}
		model := gp.New(k, 1e-4)
		if err := model.Fit(x[:split], logT); err != nil {
			return nil, fmt.Errorf("exp: surrogate fit (%s): %w", k.Name(), err)
		}
		preds := make([]float64, 0, len(x)-split)
		for _, row := range x[split:] {
			m, _, err := model.Predict(row)
			if err != nil {
				return nil, err
			}
			preds = append(preds, m)
		}
		return preds, nil
	}

	predEDP, err := predict(edp)
	if err != nil {
		return res, err
	}
	predDel, err := predict(delay)
	if err != nil {
		return res, err
	}
	trueEDP := logSlice(edp[split:])
	trueDel := logSlice(delay[split:])
	res.SpearmanEDP = stats.Spearman(predEDP, trueEDP)
	res.SpearmanDel = stats.Spearman(predDel, trueDel)
	res.TopQuintile = stats.TopQuantileOverlap(predEDP, trueEDP, 0.2)
	return res, nil
}

func logOf(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Log(v)
}

func logSlice(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = logOf(x)
	}
	return out
}
