package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/eval"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// tinySearchSpec is a fast search spec for runner tests.
func tinySearchSpec(samples int) JobSpec {
	return JobSpec{
		Kind:      KindSearch,
		Models:    []string{"Transformer"},
		HWSamples: samples,
		SWSamples: 4,
		Eval:      "maestro,cache",
	}
}

// The "gate" backend is maestro behind a switch the test holds. While a
// test holds the gate, every evaluation waits for a pass from step, so
// a job evaluating through it is provably mid-flight until release.
// Outside a hold the gate is open.
func init() {
	open := make(chan struct{})
	close(open)
	heldGate.Store(&gate{pass: open})
	eval.Register("gate", func() (core.Evaluator, error) { return gateBackend{maestro.New()}, nil })
}

type gateBackend struct{ core.Evaluator }

func (b gateBackend) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	<-heldGate.Load().pass
	return b.Evaluator.Evaluate(a, s, l)
}

type gate struct {
	pass    chan struct{} // each send passes one evaluation; closed, it passes all
	release func()        // closes pass; idempotent
}

var heldGate atomic.Pointer[gate]

// holdGate shuts the gate. Callers defer release after deferring the
// runner's shutdown, so a failing test still lets its jobs finish.
func holdGate() *gate {
	g := &gate{pass: make(chan struct{})}
	g.release = sync.OnceFunc(func() { close(g.pass) })
	heldGate.Store(g)
	return g
}

// step lets exactly one evaluation through and returns once one has
// taken it: its job is running and inside the backend.
func (g *gate) step(t *testing.T) {
	t.Helper()
	select {
	case g.pass <- struct{}{}:
	case <-time.After(60 * time.Second):
		t.Fatal("no evaluation reached the gate")
	}
}

func waitTerminal(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s never reached a terminal state (still %s)", j.ID(), j.Status().State)
	}
	return j.Status()
}

func shutdownRunner(t *testing.T, r *Runner) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestRunnerFIFOIdenticalJobsIdenticalArtifacts: a single worker drains
// jobs in submission order with deterministic IDs, and two identical
// experiment jobs — the second served almost entirely from the shared
// memo cache — produce byte-identical artifacts: the shared pipeline is
// trajectory-neutral.
func TestRunnerFIFOIdenticalJobsIdenticalArtifacts(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRunner(RunnerConfig{Concurrency: 1, Tracer: obs.NewMetricsTracer(reg)})
	defer shutdownRunner(t, r)

	a, err := r.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != "job-1" || b.ID() != "job-2" {
		t.Fatalf("IDs = %s, %s; want job-1, job-2", a.ID(), b.ID())
	}
	sa, sb := waitTerminal(t, a), waitTerminal(t, b)
	if sa.State != StateDone || sb.State != StateDone {
		t.Fatalf("states = %s/%s (%s/%s), want done/done", sa.State, sb.State, sa.Error, sb.Error)
	}
	da, ok := a.Artifact("fig6.csv")
	if !ok {
		t.Fatalf("job-1 has no fig6.csv (artifacts: %v)", sa.Artifacts)
	}
	db, _ := b.Artifact("fig6.csv")
	if !bytes.Equal(da, db) {
		t.Fatalf("identical jobs produced different fig6.csv:\n%s\nvs\n%s", da, db)
	}
	// The second job re-asked for evaluations the first already paid
	// for; the shared pipeline's memo cache must answer them as hits.
	if hits := reg.Counter("trace.cache.hit").Value(); hits == 0 {
		t.Fatal("duplicate job produced no cache hits in the shared pipeline")
	}
	if sa.Events == 0 {
		t.Fatal("job trace buffer recorded no events")
	}
}

// TestRunnerCancelQueued: a job canceled while waiting for a worker goes
// terminal immediately and is never run.
func TestRunnerCancelQueued(t *testing.T) {
	r := NewRunner(RunnerConfig{Concurrency: 1})
	defer shutdownRunner(t, r)
	g := holdGate()
	defer g.release()

	blockerSpec := tinySearchSpec(2)
	blockerSpec.Eval = "gate,cache"
	blocker, err := r.Submit(blockerSpec)
	if err != nil {
		t.Fatal(err)
	}
	g.step(t) // the blocker now holds the only worker
	queued, err := r.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Cancel(queued.ID()); err != nil {
		t.Fatalf("Cancel(queued): %v", err)
	}
	st := waitTerminal(t, queued)
	if st.State != StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", st.State)
	}
	if st.Events != 0 {
		t.Fatalf("canceled-while-queued job has %d trace events; it must never have run", st.Events)
	}
	if err := r.Cancel(queued.ID()); !errors.Is(err, ErrJobFinished) {
		t.Fatalf("Cancel(finished) = %v, want ErrJobFinished", err)
	}
	if err := r.Cancel("job-999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(unknown) = %v, want ErrNotFound", err)
	}
	if err := r.Cancel(blocker.ID()); err != nil {
		t.Fatalf("Cancel(running): %v", err)
	}
	g.release()
	if st := waitTerminal(t, blocker); st.State != StateCanceled {
		t.Fatalf("blocker state = %s (%s), want canceled", st.State, st.Error)
	}
}

// TestRunnerCancelRunningThenResume is the server-side checkpoint story:
// cancel a running search after its first completed sample, observe the
// retained checkpoint makes it resumable, resume it, and check the
// continuation reaches the same best objective as an identical
// uninterrupted run — core's resume determinism carried through the
// runner.
func TestRunnerCancelRunningThenResume(t *testing.T) {
	const samples = 4
	r := NewRunner(RunnerConfig{Concurrency: 1})
	defer shutdownRunner(t, r)
	g := holdGate()
	defer g.release()

	spec := tinySearchSpec(samples)
	spec.Eval = "gate,cache"
	j, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Pass evaluations one at a time until the first checkpoint lands.
	// Sample two's evaluations miss the cache, so it cannot finish while
	// the gate is held and the cancel lands mid-run.
	for j.Status().Samples == 0 {
		g.step(t)
	}
	if err := r.Cancel(j.ID()); err != nil {
		t.Fatalf("Cancel(running): %v", err)
	}
	g.release()
	st := waitTerminal(t, j)
	if st.State != StateCanceled {
		t.Fatalf("state = %s (%s), want canceled", st.State, st.Error)
	}
	if st.Samples != 1 {
		t.Fatalf("canceled job kept %d samples, want the 1 completed before the cancel", st.Samples)
	}
	if !st.Resumable {
		t.Fatal("canceled search with a checkpoint is not resumable")
	}

	resumed, err := r.Resume(j.ID())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	rst := waitTerminal(t, resumed)
	if rst.State != StateDone {
		t.Fatalf("resumed job state = %s (%s), want done", rst.State, rst.Error)
	}
	if rst.ResumedFrom != j.ID() {
		t.Fatalf("resumed job ancestry = %q, want %q", rst.ResumedFrom, j.ID())
	}
	if rst.Samples != samples {
		t.Fatalf("resumed job completed %d samples, want %d", rst.Samples, samples)
	}

	// Reference: the same spec uninterrupted.
	ref, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refst := waitTerminal(t, ref)
	if refst.State != StateDone {
		t.Fatalf("reference job state = %s (%s)", refst.State, refst.Error)
	}
	if rst.BestObjective == nil || refst.BestObjective == nil {
		t.Fatalf("missing best objectives: resumed=%v ref=%v", rst.BestObjective, refst.BestObjective)
	}
	if *rst.BestObjective != *refst.BestObjective {
		t.Fatalf("resumed best %g != uninterrupted best %g", *rst.BestObjective, *refst.BestObjective)
	}
}

// TestRunnerResumeRejections: unknown jobs, experiment jobs, and
// checkpoint-less jobs cannot be resumed.
func TestRunnerResumeRejections(t *testing.T) {
	r := NewRunner(RunnerConfig{Concurrency: 1})
	defer shutdownRunner(t, r)

	if _, err := r.Resume("job-999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resume(unknown) = %v, want ErrNotFound", err)
	}
	exp, err := r.Submit(kernelsSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, exp)
	if _, err := r.Resume(exp.ID()); !errors.Is(err, ErrNotResumable) {
		t.Fatalf("Resume(experiment) = %v, want ErrNotResumable", err)
	}
}

// TestRunnerSubmitRejectsBadSpecs: validation and pipeline construction
// both happen at submission, so bad jobs never enter the queue.
func TestRunnerSubmitRejectsBadSpecs(t *testing.T) {
	r := NewRunner(RunnerConfig{Concurrency: 1})
	defer shutdownRunner(t, r)

	spec := tinySpec()
	spec.Eval = "no-such-backend,cache"
	if _, err := r.Submit(spec); err == nil {
		t.Fatal("unknown backend accepted at submission")
	} else if _, ok := IsUnknownBackend(err); !ok {
		t.Fatalf("unknown backend error is %T, want *eval.UnknownBackendError", err)
	}
	spec = tinySpec()
	spec.Steps = []string{"fig99"}
	if _, err := r.Submit(spec); err == nil {
		t.Fatal("unknown step accepted at submission")
	}
}

// TestRunnerShutdownDrains: shutdown lets the running job finish, kills
// the queue, and refuses new work while it drains.
func TestRunnerShutdownDrains(t *testing.T) {
	r := NewRunner(RunnerConfig{Concurrency: 1})
	g := holdGate()
	defer g.release()
	spec := tinySpec()
	spec.Eval = "gate,cache"
	running, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := r.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// The first job is inside an evaluation and cannot finish until the
	// gate opens, so shutdown must exercise both the drain path
	// (running) and the queue-kill path (queued).
	g.step(t)
	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		shutdown <- r.Shutdown(ctx)
	}()
	if st := waitTerminal(t, queued); st.State != StateCanceled {
		t.Fatalf("queued job state after shutdown = %s, want canceled", st.State)
	}
	if _, err := r.Submit(tinySpec()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit while draining = %v, want ErrShuttingDown", err)
	}
	if st := running.Status(); st.State != StateRunning {
		t.Fatalf("running job is %s while shutdown drains, want running", st.State)
	}
	g.release()
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := running.Status(); st.State != StateDone {
		t.Fatalf("running job drained to %s (%s), want done", st.State, st.Error)
	}
	if _, err := r.Submit(tinySpec()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after shutdown = %v, want ErrShuttingDown", err)
	}
}

// slowExperimentSpec is an experiment job that runs for seconds when
// left alone (fig10 on MobileNetV2, 24 × 24 samples, 2 trials: about
// 2 s on a 2-CPU host) and evaluates through the gate backend.
func slowExperimentSpec() JobSpec {
	return JobSpec{
		Kind:      KindExperiment,
		Steps:     []string{"fig10"},
		Models:    []string{"MobileNetV2"},
		HWSamples: 24,
		SWSamples: 24,
		Trials:    2,
		Eval:      "gate,cache",
	}
}

// TestRunnerCancelRunningExperiment: a canceled experiment job stops at
// its next sample, not at the end of its step. It reaches canceled
// within a second and keeps no artifact of the interrupted step.
func TestRunnerCancelRunningExperiment(t *testing.T) {
	r := NewRunner(RunnerConfig{Concurrency: 1})
	defer shutdownRunner(t, r)
	g := holdGate()
	defer g.release()

	j, err := r.Submit(slowExperimentSpec())
	if err != nil {
		t.Fatal(err)
	}
	g.step(t) // the job is inside fig10's first evaluation
	if err := r.Cancel(j.ID()); err != nil {
		t.Fatalf("Cancel(running experiment): %v", err)
	}
	g.release()
	select {
	case <-j.Done():
	case <-time.After(time.Second):
		t.Fatalf("canceled experiment job is still %s after 1s", j.Status().State)
	}
	st := j.Status()
	if st.State != StateCanceled {
		t.Fatalf("state = %s (%s), want canceled", st.State, st.Error)
	}
	if len(st.Artifacts) != 0 {
		t.Fatalf("canceled job kept artifacts %v of its interrupted step", st.Artifacts)
	}
}

// TestRunnerShutdownCancelsExperiment: Shutdown whose drain context has
// already expired cancels a running experiment job and returns within a
// second, instead of waiting for the job's step to finish.
func TestRunnerShutdownCancelsExperiment(t *testing.T) {
	r := NewRunner(RunnerConfig{Concurrency: 1})
	g := holdGate()
	defer g.release()

	j, err := r.Submit(slowExperimentSpec())
	if err != nil {
		t.Fatal(err)
	}
	g.step(t) // the job is running
	g.release()
	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	shutdown := make(chan error, 1)
	go func() { shutdown <- r.Shutdown(expired) }()
	select {
	case err := <-shutdown:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(time.Second):
		t.Errorf("Shutdown with an expired drain context still waiting after 1s")
		<-shutdown
	}
	if st := j.Status(); st.State != StateCanceled {
		t.Fatalf("running experiment ended %s (%s), want canceled", st.State, st.Error)
	}
}
