package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
)

// checkpointVersion is bumped on incompatible checkpoint schema changes.
const checkpointVersion = 1

// Checkpoint is a resumable snapshot of a co-design run, taken after a
// completed hardware sample. It records everything RunContext needs to
// continue as if it had never stopped: the per-sample observations the
// hardware proposer learned from, the history (with elapsed offsets
// measured from the original start, so a resumed run continues the clock
// rather than restarting it), and the incumbent best/frontier/top-K
// designs. The strategy's internal state is NOT serialized; it is
// reconstructed on resume by replaying Suggest/Observe over the recorded
// observations, which is exact because every strategy is a deterministic
// function of the run seed and its observation sequence (and the
// per-layer software searches derive their RNGs from (Seed, sample,
// layer) independently). A run checkpointed at sample k and resumed is
// therefore bit-identical to an uninterrupted run, at any Workers
// setting — enforced by TestCheckpointResumeBitIdentical.
type Checkpoint struct {
	Version     int    `json:"version"`
	Tool        string `json:"tool"`
	Fingerprint string `json:"fingerprint"`
	// Samples is the number of completed hardware samples covered.
	Samples int `json:"samples"`
	// Elapsed is the wall-clock time consumed up to the last completed
	// sample, accumulated across resume segments.
	Elapsed      time.Duration    `json:"elapsed_ns"`
	Observations []Observation    `json:"observations"`
	History      []cpHistoryPoint `json:"history,omitempty"`
	Best         *Design          `json:"best,omitempty"`
	Frontier     []Design         `json:"frontier,omitempty"` // internal insertion order
	Top          []Design         `json:"top,omitempty"`      // internal rank order
}

// Observation is one hardware sample's outcome as the hardware proposer
// saw it: the proposed accelerator and either its finite aggregate
// objective (Valid) or infeasibility (invalid designs are replayed with
// an error wrapping maestro.ErrInvalid, matching what the live run fed
// to Observe).
type Observation struct {
	Accel     hw.Accel `json:"accel"`
	Objective float64  `json:"objective,omitempty"` // finite; meaningful only when Valid
	Valid     bool     `json:"valid"`
}

// cpHistoryPoint mirrors HistoryPoint with JSON-safe non-finite values
// (infeasible samples record Value = +Inf, which encoding/json rejects
// as a bare number).
type cpHistoryPoint struct {
	Sample    int           `json:"sample"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	Value     jsonFloat     `json:"value"`
	BestSoFar jsonFloat     `json:"best_so_far"`
}

// jsonFloat is a float64 whose JSON form represents NaN and ±Inf as
// strings, since JSON has no literals for them. Finite values marshal as
// ordinary numbers (Go's encoder emits the shortest digits that
// round-trip exactly, so bit-identity survives serialization).
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = jsonFloat(math.NaN()) //lint:allow nonfinite(jsonFloat IS the sanctioned hygiene codec; this decodes the quoted sentinel back to its IEEE value)
		case "+Inf", "Inf":
			*f = jsonFloat(math.Inf(1)) //lint:allow nonfinite(jsonFloat IS the sanctioned hygiene codec; this decodes the quoted sentinel back to its IEEE value)
		case "-Inf":
			*f = jsonFloat(math.Inf(-1)) //lint:allow nonfinite(jsonFloat IS the sanctioned hygiene codec; this decodes the quoted sentinel back to its IEEE value)
		default:
			return fmt.Errorf("core: checkpoint float %q is not NaN/+Inf/-Inf", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// WriteCheckpoint serializes a checkpoint as indented JSON.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// ReadCheckpoint parses a checkpoint written by WriteCheckpoint,
// validating the schema version.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	return &cp, nil
}

// Fingerprint identifies the (configuration, strategy) pair a checkpoint
// belongs to: everything that influences the search trajectory — models,
// space, budget, objective, sample counts, seed, software constraint,
// strategy, and evaluator — but not Workers, because results are
// bit-identical at every worker count. Resume refuses a checkpoint whose
// fingerprint does not match the resuming run.
func Fingerprint(cfg RunConfig, strat Strategy) string {
	cfg, _ = cfg.normalized()
	h := sha256.New()
	fmt.Fprintf(h, "strategy=%s\n", strat.Name())
	fmt.Fprintf(h, "objective=%s hw=%d sw=%d seed=%d\n",
		cfg.Objective, cfg.HWSamples, cfg.SWSamples, cfg.Seed)
	fmt.Fprintf(h, "space=%+v\nbudget=%+v\nconstraint=%s\n",
		cfg.Space, cfg.Budget, cfg.SWConstraint.Name)
	if cfg.Eval != nil {
		fmt.Fprintf(h, "eval=%s\n", cfg.Eval.Name())
	}
	for _, m := range cfg.Models {
		fmt.Fprintf(h, "model=%s\n", m.Name)
		for _, l := range m.Layers {
			fmt.Fprintf(h, "layer=%+v\n", l)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// buildCheckpoint snapshots the live run state. Its own slices are
// copied, and its designs share their Layers with the run's: a
// design's Layers is written only inside evaluateHardware, before the
// design is returned, so the checkpoint stays valid however long the
// caller holds it.
func buildCheckpoint(cfg RunConfig, strat Strategy, obs []Observation,
	res *Result, frontier *ParetoFrontier, top *TopDesigns) *Checkpoint {

	cp := &Checkpoint{
		Version:      checkpointVersion,
		Tool:         strat.Name(),
		Fingerprint:  Fingerprint(cfg, strat),
		Samples:      len(obs),
		Observations: append([]Observation(nil), obs...),
	}
	if n := len(res.History); n > 0 {
		cp.Elapsed = res.History[n-1].Elapsed
	}
	for _, hp := range res.History {
		cp.History = append(cp.History, cpHistoryPoint{
			Sample:    hp.Sample,
			Elapsed:   hp.Elapsed,
			Value:     jsonFloat(hp.Value),
			BestSoFar: jsonFloat(hp.BestSoFar),
		})
	}
	if !math.IsInf(res.Best.Objective, 1) {
		b := res.Best
		cp.Best = &b
	}
	cp.Frontier = append(cp.Frontier, frontier.points...)
	cp.Top = append(cp.Top, top.designs...)
	return cp
}

// restoredState is what a checkpoint reconstructs inside RunContext.
type restoredState struct {
	best     Design
	history  []HistoryPoint
	frontier ParetoFrontier
	top      TopDesigns
	obs      []Observation
	elapsed  time.Duration
}

// errReplayedInvalid is fed to Observe when replaying an infeasible
// sample; strategies only inspect err != nil (and some unwrap to
// maestro.ErrInvalid), matching what the live run passed.
var errReplayedInvalid = fmt.Errorf("core: replayed infeasible sample: %w", maestro.ErrInvalid)

// restore validates the checkpoint against the resuming configuration
// and rebuilds both the bookkeeping state and the hardware proposer's
// internal state, the latter by replaying the Suggest/Observe sequence.
// Replay doubles as an integrity check: every replayed Suggest must
// reproduce the recorded accelerator exactly, otherwise the checkpoint
// and the configuration have diverged in a way the fingerprint missed.
func (cp *Checkpoint) restore(cfg RunConfig, strat Strategy, hwSearch HWProposer) (restoredState, error) {
	st := restoredState{}
	st.best.Objective = math.Inf(1)
	if cp.Version != checkpointVersion {
		return st, fmt.Errorf("checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if got := Fingerprint(cfg, strat); cp.Fingerprint != got {
		return st, fmt.Errorf("checkpoint fingerprint %s does not match this run's %s (different models, budget, seed, strategy, or evaluator)",
			cp.Fingerprint, got)
	}
	if cp.Samples != len(cp.Observations) {
		return st, fmt.Errorf("checkpoint covers %d samples but records %d observations",
			cp.Samples, len(cp.Observations))
	}
	if cp.Samples > cfg.HWSamples {
		return st, fmt.Errorf("checkpoint covers %d samples, run budget is %d",
			cp.Samples, cfg.HWSamples)
	}
	for i, o := range cp.Observations {
		accel := hwSearch.Suggest()
		if accel != o.Accel {
			return st, fmt.Errorf("replay diverged at sample %d: strategy proposed %s, checkpoint recorded %s",
				i+1, accel, o.Accel)
		}
		if o.Valid {
			hwSearch.Observe(accel, o.Objective, nil)
		} else {
			hwSearch.Observe(accel, math.Inf(1), errReplayedInvalid)
		}
	}
	if cp.Best != nil {
		st.best = *cp.Best
	}
	for _, hp := range cp.History {
		st.history = append(st.history, HistoryPoint{
			Sample:    hp.Sample,
			Elapsed:   hp.Elapsed,
			Value:     float64(hp.Value),
			BestSoFar: float64(hp.BestSoFar),
		})
	}
	st.frontier.points = append(st.frontier.points, cp.Frontier...)
	st.top = TopDesigns{K: topKDesigns}
	st.top.designs = append(st.top.designs, cp.Top...)
	st.obs = append([]Observation(nil), cp.Observations...)
	st.elapsed = cp.Elapsed
	return st, nil
}
