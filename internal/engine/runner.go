package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/eval"
	"spotlight/internal/obs"
)

// Job states. A job is terminal in StateDone, StateFailed, or
// StateCanceled; only terminal search jobs with a retained checkpoint
// can be resumed.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Sentinel errors for the job API; the HTTP layer maps them onto status
// codes (404, 409, 503).
var (
	ErrNotFound     = errors.New("engine: no such job")
	ErrJobFinished  = errors.New("engine: job already finished")
	ErrNotResumable = errors.New("engine: job is not resumable")
	ErrShuttingDown = errors.New("engine: runner is shutting down")
)

// RunnerConfig configures a Runner.
type RunnerConfig struct {
	// Concurrency bounds how many jobs run at once (min 1). Queued jobs
	// wait FIFO.
	Concurrency int
	// CacheDir, if set, backs every pipeline with the crash-safe
	// persistent journal (the CLIs' -cache-dir).
	CacheDir string
	// Tracer is the server-wide sink (typically a MetricsTracer feeding
	// /metrics). It receives every job's events and — crucially — the
	// shared pipelines' cache.hit/cache.miss stream, which is how a
	// repeated job shows up as hits in the counters.
	Tracer obs.Tracer
}

// Runner executes JobSpecs on a bounded worker pool: the spotlightd
// core, but embeddable anywhere. Jobs queue FIFO, run under a per-job
// cancelable context, retain their latest checkpoint for resume, and
// buffer their trace events for SSE replay. All jobs share
// one PipelineSet, so concurrent submissions with the same eval spec
// share a memo cache (and disk journal) and deduplicate evaluations.
type Runner struct {
	cfg   RunnerConfig
	pipes *PipelineSet

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job
	order   []string // submission order, for deterministic listings
	pending []*Job   // FIFO queue of jobs not yet picked up
	nextID  int
	closing bool
	wg      sync.WaitGroup
}

// NewRunner starts a runner with cfg.Concurrency workers.
func NewRunner(cfg RunnerConfig) *Runner {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	r := &Runner{
		cfg: cfg,
		pipes: NewPipelineSet(eval.SpecOptions{
			Tracer:   cfg.Tracer,
			CacheDir: cfg.CacheDir,
		}),
		jobs: map[string]*Job{},
	}
	r.cond = sync.NewCond(&r.mu)
	for i := 0; i < cfg.Concurrency; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// Pipelines exposes the shared pipeline set (for stats reporting).
func (r *Runner) Pipelines() *PipelineSet { return r.pipes }

// Job is one submitted unit of work and its lifecycle record. All
// mutable state is guarded by mu; Trace has its own synchronization.
type Job struct {
	id          string
	spec        JobSpec // normalized at submission
	trace       *TraceBuffer
	done        chan struct{}
	resumedFrom string
	resume      *core.Checkpoint // checkpoint to restart from, for resumed jobs

	mu         sync.Mutex
	state      string
	cancel     context.CancelFunc // set while running
	err        error
	summary    string
	best       float64   // best objective; +Inf until a feasible design lands
	samples    int       // completed hardware samples (search jobs)
	started    time.Time // when the job left the queue; zero while queued
	ended      time.Time // when the job went terminal; zero until then
	artifacts  []Artifact
	checkpoint *core.Checkpoint // latest, retained for resume
}

// ID returns the job's identifier ("job-1", "job-2", ... in submission
// order — deterministic, no wall clock involved).
func (j *Job) ID() string { return j.id }

// Spec returns the job's normalized spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Trace returns the job's trace buffer for subscribers.
func (j *Job) Trace() *TraceBuffer { return j.trace }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is the wire-format snapshot of a job. BestObjective is a
// pointer precisely because +Inf (no feasible design yet) cannot be
// marshaled as JSON — it is present only once finite.
type JobStatus struct {
	ID            string   `json:"id"`
	Kind          string   `json:"kind"`
	State         string   `json:"state"`
	Spec          JobSpec  `json:"spec"`
	Error         string   `json:"error,omitempty"`
	Summary       string   `json:"summary,omitempty"`
	BestObjective *float64 `json:"best_objective,omitempty"`
	Samples       int      `json:"samples,omitempty"`
	Artifacts     []string `json:"artifacts,omitempty"`
	Resumable     bool     `json:"resumable,omitempty"`
	ResumedFrom   string   `json:"resumed_from,omitempty"`
	Events        int      `json:"events"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		Kind:        j.spec.Kind,
		State:       j.state,
		Spec:        j.spec,
		Summary:     j.summary,
		Samples:     j.samples,
		ResumedFrom: j.resumedFrom,
		Resumable:   j.resumableLocked(),
		Events:      j.trace.Len(),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !math.IsInf(j.best, 0) {
		v := j.best
		st.BestObjective = &v
	}
	for _, a := range j.artifacts {
		st.Artifacts = append(st.Artifacts, a.Name)
	}
	return st
}

// JobProgress is the live search-progress view served at
// GET /jobs/{id}/progress: how far the job is, how fast evaluations are
// going, how much the cache is absorbing, and a naive linear ETA.
// Throughput and cache figures are counted from the job's own trace
// buffer, so concurrent jobs never blur into each other. Evals counts the
// backend evaluations a traced pipeline reports (its eval.done events);
// on a Runner without a Tracer the shared pipelines emit none, and it
// reads 0.
type JobProgress struct {
	ID            string   `json:"id"`
	Kind          string   `json:"kind"`
	State         string   `json:"state"`
	TrialsDone    int      `json:"trials_done"`
	TrialsTotal   int      `json:"trials_total,omitempty"`
	BestObjective *float64 `json:"best_objective,omitempty"`
	Evals         int64    `json:"evals"`
	EvalsPerSec   float64  `json:"evals_per_sec"`
	CacheHits     int64    `json:"cache_hits"`
	CacheMisses   int64    `json:"cache_misses"`
	CacheHitRate  float64  `json:"cache_hit_rate"`
	ElapsedS      float64  `json:"elapsed_s"`
	ETAS          float64  `json:"eta_s,omitempty"`
	Events        int      `json:"events"`
}

// Progress snapshots the job's live progress. Elapsed time freezes at
// the terminal timestamp once the job finishes, so throughput figures
// stay meaningful afterwards. The ETA is elapsed scaled by remaining
// trials — linear extrapolation, reported only while running with at
// least one trial done.
func (j *Job) Progress() JobProgress {
	j.mu.Lock()
	p := JobProgress{
		ID:         j.id,
		Kind:       j.spec.Kind,
		State:      j.state,
		TrialsDone: j.samples,
	}
	if j.spec.Kind == KindSearch {
		p.TrialsTotal = j.spec.HWSamples
	}
	if !math.IsInf(j.best, 0) {
		v := j.best
		p.BestObjective = &v
	}
	started, ended := j.started, j.ended
	j.mu.Unlock()

	p.Events = j.trace.Len()
	p.Evals = j.trace.Count(obs.EvalDone)
	p.CacheHits = j.trace.Count(obs.CacheHit)
	p.CacheMisses = j.trace.Count(obs.CacheMiss)
	if total := p.CacheHits + p.CacheMisses; total > 0 {
		p.CacheHitRate = float64(p.CacheHits) / float64(total)
	}
	if !started.IsZero() {
		elapsed := obs.Since(started)
		if !ended.IsZero() {
			elapsed = ended.Sub(started)
		}
		p.ElapsedS = elapsed.Seconds()
		if p.ElapsedS > 0 {
			p.EvalsPerSec = float64(p.Evals) / p.ElapsedS
		}
		if p.State == StateRunning && p.TrialsTotal > 0 &&
			p.TrialsDone > 0 && p.TrialsDone < p.TrialsTotal {
			p.ETAS = p.ElapsedS / float64(p.TrialsDone) * float64(p.TrialsTotal-p.TrialsDone)
		}
	}
	return p
}

// Artifact returns the named artifact's bytes.
func (j *Job) Artifact(name string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, a := range j.artifacts {
		if a.Name == name {
			return a.Data, true
		}
	}
	return nil, false
}

// resumableLocked: terminal search job holding a checkpoint. Callers
// hold j.mu.
func (j *Job) resumableLocked() bool {
	switch j.state {
	case StateFailed, StateCanceled, StateDone:
		return j.spec.Kind == KindSearch && j.checkpoint != nil
	}
	return false
}

// finish moves the job to a terminal state exactly once: records the
// outcome, ends the trace stream (releasing SSE subscribers), and closes
// Done. Later calls are ignored, so a cancel racing completion is safe.
func (j *Job) finish(state string, err error) {
	j.mu.Lock()
	moved := j.finishLocked(state, err)
	j.mu.Unlock()
	if moved {
		j.trace.End()
		close(j.done)
	}
}

// finishLocked performs the state transition under j.mu, reporting
// whether it happened; the caller then ends the trace and closes Done
// outside the lock.
func (j *Job) finishLocked(state string, err error) bool {
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return false
	}
	j.state = state
	j.err = err
	j.cancel = nil
	j.ended = obs.Now()
	return true
}

// Submit validates, registers, and enqueues a job, returning its handle.
// The eval pipeline is built (or found shared) here, so an unknown
// backend or malformed middleware token fails the submission — the HTTP
// layer turns *eval.UnknownBackendError into a 400 with the backend
// list — rather than a job that dies later.
func (r *Runner) Submit(spec JobSpec) (*Job, error) {
	return r.submit(spec, nil, "")
}

func (r *Runner) submit(spec JobSpec, resume *core.Checkpoint, resumedFrom string) (*Job, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	closing := r.closing
	r.mu.Unlock()
	if closing {
		return nil, ErrShuttingDown
	}
	if _, err := r.pipes.Get(spec.Eval); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		return nil, ErrShuttingDown
	}
	r.nextID++
	j := &Job{
		id:          fmt.Sprintf("job-%d", r.nextID),
		spec:        spec,
		trace:       NewTraceBuffer(),
		done:        make(chan struct{}),
		state:       StateQueued,
		best:        math.Inf(1),
		resume:      resume,
		resumedFrom: resumedFrom,
	}
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	r.pending = append(r.pending, j)
	r.cond.Signal()
	return j, nil
}

// Get returns a job by ID.
func (r *Runner) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (r *Runner) Jobs() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Job, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.jobs[id])
	}
	return out
}

// Cancel cancels a job: a queued job goes terminal immediately, a
// running one gets its context canceled and stops at its next sample,
// keeping the artifacts of the experiment steps it completed. Canceling
// a finished job returns ErrJobFinished.
func (r *Runner) Cancel(id string) error {
	j, ok := r.Get(id)
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		// Transition under j.mu: a worker claiming the job serializes on
		// the same lock, so either it sees canceled and skips, or we see
		// running and cancel the context below — never both.
		j.finishLocked(StateCanceled, context.Canceled)
		j.mu.Unlock()
		j.trace.End()
		close(j.done)
		return nil
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	}
	j.mu.Unlock()
	return ErrJobFinished
}

// Resume submits a new job continuing a terminal search job from its
// retained checkpoint — the server-side analogue of the CLI's
// -checkpoint/-resume files, with the snapshot held in memory instead.
// The new job reuses the original spec verbatim (core requires matching
// models, seed, strategy, and budgets) and records its ancestry.
func (r *Runner) Resume(id string) (*Job, error) {
	j, ok := r.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	resumable := j.resumableLocked()
	cp := j.checkpoint
	spec := j.spec
	j.mu.Unlock()
	if !resumable {
		return nil, ErrNotResumable
	}
	return r.submit(spec, cp, id)
}

// Shutdown drains the runner: new submissions are refused, queued jobs
// are canceled, and running jobs are given until ctx expires to finish
// before being canceled too. It then flushes and closes the shared
// pipelines (the persistent cache journals). Workers exit; the runner
// is not reusable.
func (r *Runner) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		return errors.New("engine: runner already shut down")
	}
	r.closing = true
	queued := r.pending
	r.pending = nil
	running := make([]*Job, 0, len(r.order))
	for _, id := range r.order {
		running = append(running, r.jobs[id])
	}
	r.cond.Broadcast()
	r.mu.Unlock()

	for _, j := range queued {
		j.finish(StateCanceled, ErrShuttingDown)
	}

	workersDone := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-ctx.Done():
		// Out of patience: cancel whatever is still running and wait for
		// the workers to wind down (every job stops at its next sample).
		for _, j := range running {
			j.mu.Lock()
			cancel := j.cancel
			j.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		}
		<-workersDone
	}
	return r.pipes.Close()
}

// worker drains the FIFO queue until shutdown.
func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.pending) == 0 && !r.closing {
			r.cond.Wait()
		}
		if len(r.pending) == 0 && r.closing {
			r.mu.Unlock()
			return
		}
		j := r.pending[0]
		r.pending = r.pending[1:]
		r.mu.Unlock()
		r.runJob(j)
	}
}

// runJob executes one job to a terminal state.
func (r *Runner) runJob(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	j.started = obs.Now()
	j.mu.Unlock()

	pipe, err := r.pipes.Get(j.spec.Eval)
	if err != nil {
		// Validated at submission; reachable only if the set was closed
		// under a racing shutdown.
		j.finish(StateFailed, err)
		return
	}
	// The job's events go to its own buffer (for SSE subscribers, and
	// counted there for /jobs/{id}/progress and the labeled per-job
	// gauges on /metrics) and to the server-wide sink (for the aggregate
	// counters). Tracing is observe-only, so the fan-out cannot perturb
	// results.
	tracer := obs.Tee(j.trace, r.cfg.Tracer)

	switch j.spec.Kind {
	case KindExperiment:
		_, err = RunExperiments(ctx, j.spec, ExperimentOptions{
			Eval:   pipe,
			Tracer: tracer,
			OnStepDone: func(res StepResult) error {
				j.mu.Lock()
				j.artifacts = append(j.artifacts, res.Artifacts...)
				if res.Summary != "" {
					j.summary += fmt.Sprintf("== %s ==\n%s", res.Key, res.Summary)
				} else {
					j.summary += fmt.Sprintf("== %s ==\n", res.Key)
				}
				j.mu.Unlock()
				return nil
			},
		})
	default: // KindSearch
		err = r.runSearchJob(ctx, j, pipe, tracer)
	}

	switch {
	case err == nil:
		j.finish(StateDone, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCanceled, err)
	default:
		j.finish(StateFailed, err)
	}
}

// runSearchJob runs a search job, retaining every checkpoint (so any
// terminal state is resumable) and recording the result summary plus
// history/design artifacts on success or cancellation.
func (r *Runner) runSearchJob(ctx context.Context, j *Job, pipe core.Evaluator, tracer obs.Tracer) error {
	obj, err := ResolveObjective(j.spec.Objective)
	if err != nil {
		return err
	}
	res, runErr := RunSearch(ctx, j.spec, SearchOptions{
		Eval:   pipe,
		Tracer: tracer,
		Resume: j.resume,
		OnCheckpoint: func(cp *core.Checkpoint) error {
			j.mu.Lock()
			j.checkpoint = cp
			j.samples = cp.Samples
			j.mu.Unlock()
			return nil
		},
	})
	canceled := runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded))
	if runErr != nil && !canceled {
		return runErr
	}
	j.mu.Lock()
	j.samples = len(res.History)
	if len(res.History) > 0 {
		j.best = res.Best.Objective
		j.artifacts = append(j.artifacts, Artifact{Name: "history.csv", Data: HistoryCSV(res)})
		if !math.IsInf(res.Best.Objective, 0) {
			j.summary = SearchReport(res, obj, false)
			if data, derr := DesignJSON(res, obj); derr == nil {
				j.artifacts = append(j.artifacts, Artifact{Name: "design.json", Data: data})
			}
		}
	}
	j.mu.Unlock()
	return runErr
}
