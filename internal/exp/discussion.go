package exp

import (
	"context"
	"fmt"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/workload"
)

// DiscussionRow is one configuration's entry in the §VII-C analysis:
// throughput per Joule (MACs/nJ, weighted over the model's layers) and
// the input-reuse statistics (reads per fill) that the paper identifies
// as the source of Spotlight's advantage, plus the winning design's PE
// array shape (the paper notes Spotlight prefers long, narrow arrays).
type DiscussionRow struct {
	Config            string
	ThroughputPerJ    float64 // MACs per nJ
	RFInputReuse      float64 // layer-weighted mean reads-per-fill at RF
	L2InputReuse      float64 // layer-weighted mean reads-per-fill at L2
	ArrayHeight       int
	ArrayWidth        int
	RelThroughputPerJ float64 // Spotlight-Opt / this config
}

// Discussion reproduces the §VII-C comparison on one model (the paper
// uses ResNet-50): Spotlight-Opt against the three hand-designed
// accelerators, all under the layerwise software optimizer.
func Discussion(ctx context.Context, cfg Config, modelName string) ([]DiscussionRow, error) {
	cfg = cfg.normalized()
	m, err := workload.ByName(modelName)
	if err != nil {
		return nil, err
	}

	rc, err := cfg.runConfig([]workload.Model{m}, 0)
	if err != nil {
		return nil, err
	}
	res, err := core.RunContext(ctx, rc, core.NewSpotlight())
	if err != nil {
		return nil, fmt.Errorf("exp: discussion co-design: %w", err)
	}
	rows := []DiscussionRow{designRow("Spotlight-Opt", res.Best)}

	scale, err := hw.ScaleByName(cfg.Scale)
	if err != nil {
		return nil, err
	}
	baselines := scale.Baselines()
	for _, b := range baselines {
		brc := rc
		brc.SWConstraint = b.Constraint
		design, err := core.OptimizeSoftware(ctx, brc, core.NewSpotlight(), b.Accel)
		if err != nil {
			return nil, fmt.Errorf("exp: discussion baseline %s: %w", b.Name, err)
		}
		rows = append(rows, designRow(b.Name, design))
	}
	for i := range rows {
		if rows[i].ThroughputPerJ > 0 {
			rows[i].RelThroughputPerJ = rows[0].ThroughputPerJ / rows[i].ThroughputPerJ
		}
	}
	return rows, nil
}

// designRow aggregates a design's layer costs into a DiscussionRow.
func designRow(name string, d core.Design) DiscussionRow {
	var macs, energy, rfReuse, l2Reuse, weight float64
	for _, lr := range d.Layers {
		rep := float64(lr.Layer.Repeat)
		macs += rep * float64(lr.Layer.MACs())
		energy += rep * lr.Cost.EnergyNJ
		rfReuse += rep * lr.Cost.RFInputReuse
		l2Reuse += rep * lr.Cost.L2InputReuse
		weight += rep
	}
	row := DiscussionRow{
		Config:      name,
		ArrayHeight: d.Accel.Height(),
		ArrayWidth:  d.Accel.Width,
	}
	if energy > 0 {
		row.ThroughputPerJ = macs / energy
	}
	if weight > 0 {
		row.RFInputReuse = rfReuse / weight
		row.L2InputReuse = l2Reuse / weight
	}
	return row
}
