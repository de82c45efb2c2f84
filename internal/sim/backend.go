package sim

import (
	"math"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Backend event names reported to the EventSink: which of the two
// evaluation paths a call took.
const (
	EventSimulated = "simulated" // trace-driven DRAM simulation replaced the analytical traffic
	EventFallback  = "fallback"  // nest too large; analytical estimate kept
)

// EventSink receives named backend events. The evaluation pipeline's
// backend counters (internal/eval's Stats) implement it, so path counters
// live with the rest of the per-backend statistics instead of inside the
// backend; a nil sink drops the events. Implementations must be safe for
// concurrent use — Evaluate may be called from several layer workers at
// once (core.RunConfig.Workers).
type EventSink interface {
	Event(name string)
}

// Backend is a hybrid cost-model backend in the spirit of the paper's
// §VIII future-work direction ("more costly but more accurate evaluation
// backends"): it runs the primary analytical model, then — whenever the
// schedule's outer loop nest is small enough to walk — replaces the
// analytical DRAM traffic with the trace-driven LRU-cache simulation and
// re-derives delay, energy, and the dependent metrics. Schedules whose
// nests are too large to simulate fall back to the analytical estimate,
// so the backend is usable as a drop-in evaluator.
//
// Energy re-derivation uses the same coefficients as the analytical
// model, so differences reflect only the more accurate traffic.
type Backend struct {
	analytical *maestro.Model
	opts       Options

	// Events, when non-nil, is told which path each evaluation took
	// (EventSimulated or EventFallback). Set it before the first
	// Evaluate call; the pipeline builder wires it to the pipeline's
	// backend counters.
	Events EventSink
}

// NewBackend returns a hybrid backend with the given simulation bounds
// (zero-value Options give the defaults).
func NewBackend(opts Options) *Backend {
	return &Backend{analytical: maestro.New(), opts: opts}
}

// Name implements the evaluator contract.
func (*Backend) Name() string { return "sim-hybrid" }

// simVersion is bumped on any change to the simulation math or the
// simulate/fallback decision, either of which changes what a cached
// result would contain.
const simVersion = "sim-v1"

// ModelFingerprint identifies this backend's cost model for persistent
// caching. The hybrid falls back to the analytical model, so its
// fingerprint incorporates maestro's: a maestro change invalidates
// sim-hybrid stores too.
func (*Backend) ModelFingerprint() string {
	return "sim-hybrid/" + simVersion + "+maestro/" + maestro.CostModelVersion
}

// event reports one path decision to the sink, if any.
func (b *Backend) event(name string) {
	if b.Events != nil {
		b.Events.Event(name)
	}
}

// Evaluate implements the evaluator contract.
func (b *Backend) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	cost, err := b.analytical.Evaluate(a, s, l)
	if err != nil {
		return cost, err
	}
	trace, err := Simulate(a, s, l, b.opts)
	if err != nil {
		// Nest too large (or working set edge case): keep the analytical
		// numbers.
		b.event(EventFallback)
		return cost, nil
	}
	b.event(EventSimulated)

	// Swap in the simulated DRAM traffic and re-derive the dependents.
	oldDRAM := cost.DRAMBytes
	newDRAM := trace.DRAMBytes()
	dramBW := math.Max(16, float64(a.NoCBW)/2)
	cost.DRAMBytes = newDRAM
	cost.DRAMCycles = newDRAM / dramBW
	ramp := cost.DelayCycles - math.Max(cost.ComputeCycles, math.Max(oldDRAM/dramBW, cost.NoCCycles))
	oldDelay := cost.DelayCycles
	cost.DelayCycles = math.Max(cost.ComputeCycles, math.Max(cost.DRAMCycles, cost.NoCCycles)) + ramp

	// Energy: remove the analytical DRAM + L2-fill term, add the
	// simulated one (L2 accesses include one write per DRAM byte). The
	// DRAM coefficient is the analytical model's, so the only difference
	// between the two paths is the traffic itself.
	eL2 := 6.0 * math.Sqrt(float64(a.L2KB)/128)
	cost.EnergyNJ += (newDRAM - oldDRAM) * (maestro.EDRAMPerByte + eL2) / 1000
	cost.L2Bytes += newDRAM - oldDRAM
	cost.PowerMW = cost.EnergyNJ * 1000 / cost.DelayCycles
	// Utilization is time-averaged over the run; rescale to the new delay.
	cost.Utilization *= oldDelay / cost.DelayCycles
	return cost, nil
}
