package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/engine"
	"spotlight/internal/eval"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

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

// newTestServer stands up a server over a fresh single-worker runner.
func newTestServer(t *testing.T) *Server {
	t.Helper()
	r := engine.NewRunner(engine.RunnerConfig{Concurrency: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := r.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return New(r, obs.NewRegistry())
}

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) errorBody {
	t.Helper()
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error response is not the JSON envelope: %v\n%s", err, rec.Body)
	}
	if body.Error == "" {
		t.Fatalf("error response has empty error field: %s", rec.Body)
	}
	return body
}

// kernelsBody is the cheapest valid experiment submission (a few
// milliseconds).
const kernelsBody = `{"kind":"experiment","steps":["kernels"],"models":["Transformer"],"hw_samples":2,"sw_samples":4,"trials":1,"eval":"maestro,cache"}`

// submitAndWait submits a job over HTTP and polls its status endpoint
// until it reaches a terminal state.
func submitAndWait(t *testing.T, s *Server, body string) engine.JobStatus {
	t.Helper()
	return waitDone(t, s, submit(t, s, body))
}

// submit posts a job and returns its ID.
func submit(t *testing.T, s *Server, body string) string {
	t.Helper()
	rec := do(t, s, "POST", "/jobs", body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit = %d, want 201\n%s", rec.Code, rec.Body)
	}
	var st engine.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// status reads a job's status over HTTP.
func status(t *testing.T, s *Server, id string) engine.JobStatus {
	t.Helper()
	rec := do(t, s, "GET", "/jobs/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", rec.Code, rec.Body)
	}
	var st engine.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls a job's status until it reaches a terminal state.
func waitDone(t *testing.T, s *Server, id string) engine.JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := status(t, s, id)
		switch st.State {
		case engine.StateDone, engine.StateFailed, engine.StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never went terminal (still %s)", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitMalformedJSON(t *testing.T) {
	s := newTestServer(t)
	for name, body := range map[string]string{
		"truncated":     `{"kind":"experiment"`,
		"not json":      `steps=fig6`,
		"wrong type":    `{"kind":"experiment","steps":"fig6"}`,
		"unknown field": `{"kind":"experiment","step":["fig6"]}`,
	} {
		rec := do(t, s, "POST", "/jobs", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: submit = %d, want 400\n%s", name, rec.Code, rec.Body)
			continue
		}
		decodeError(t, rec)
	}
}

// TestSubmitOversizedBody: a spec body over the 1 MiB bound is refused
// with 413 and the JSON error envelope, and enqueues nothing.
func TestSubmitOversizedBody(t *testing.T) {
	s := newTestServer(t)
	body := `{"kind":"experiment","models":["` + strings.Repeat("x", maxSubmitBytes) + `"]}`
	rec := do(t, s, "POST", "/jobs", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("submit = %d, want 413\n%.200s", rec.Code, rec.Body)
	}
	decodeError(t, rec)
	if jobs := s.runner.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized submit enqueued %d jobs", len(jobs))
	}
}

// TestSubmitUnknownBackendListsRegistered: an unknown eval-spec token is
// a 400 whose body names the backends that do exist — the
// *eval.UnknownBackendError carried over the wire.
func TestSubmitUnknownBackendListsRegistered(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "POST", "/jobs",
		`{"kind":"experiment","steps":["simcheck"],"eval":"no-such-backend,cache"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("submit = %d, want 400\n%s", rec.Code, rec.Body)
	}
	body := decodeError(t, rec)
	if len(body.Backends) == 0 {
		t.Fatalf("unknown-backend error did not list registered backends: %s", rec.Body)
	}
	found := false
	for _, b := range body.Backends {
		if b == "maestro" {
			found = true
		}
	}
	if !found {
		t.Fatalf("backend list %v missing maestro", body.Backends)
	}
	if !strings.Contains(body.Error, "no-such-backend") {
		t.Fatalf("error %q does not name the offending token", body.Error)
	}
}

func TestSubmitInvalidSpec(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "POST", "/jobs", `{"kind":"experiment","steps":["fig99"]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("submit = %d, want 400\n%s", rec.Code, rec.Body)
	}
	decodeError(t, rec)
}

func TestCancelUnknownAndFinished(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, "POST", "/jobs/job-999/cancel", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404\n%s", rec.Code, rec.Body)
	}
	st := submitAndWait(t, s, kernelsBody)
	if st.State != engine.StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	rec := do(t, s, "POST", "/jobs/"+st.ID+"/cancel", "")
	if rec.Code != http.StatusConflict {
		t.Fatalf("cancel finished = %d, want 409\n%s", rec.Code, rec.Body)
	}
	decodeError(t, rec)
}

func TestResumeRejections(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, "POST", "/jobs/job-999/resume", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("resume unknown = %d, want 404\n%s", rec.Code, rec.Body)
	}
	// Experiment jobs have no checkpoint: resume is a conflict.
	st := submitAndWait(t, s, kernelsBody)
	rec := do(t, s, "POST", "/jobs/"+st.ID+"/resume", "")
	if rec.Code != http.StatusConflict {
		t.Fatalf("resume experiment = %d, want 409\n%s", rec.Code, rec.Body)
	}
	decodeError(t, rec)
}

func TestStatusAndArtifactNotFound(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, "GET", "/jobs/job-999", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("status unknown = %d, want 404", rec.Code)
	}
	if rec := do(t, s, "GET", "/jobs/job-999/artifacts/fig6.csv", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("artifact of unknown job = %d, want 404", rec.Code)
	}
	st := submitAndWait(t, s, kernelsBody)
	rec := do(t, s, "GET", "/jobs/"+st.ID+"/artifacts/nope.csv", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown artifact = %d, want 404\n%s", rec.Code, rec.Body)
	}
	decodeError(t, rec)

	rec = do(t, s, "GET", "/jobs/"+st.ID+"/artifacts/kernels.csv", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("artifact = %d, want 200 (artifacts: %v)", rec.Code, st.Artifacts)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("artifact content type = %q, want text/csv", ct)
	}
	if rec.Body.Len() == 0 {
		t.Fatal("artifact body is empty")
	}
}

func TestListAndHealthz(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	submitAndWait(t, s, kernelsBody)
	rec := do(t, s, "GET", "/jobs", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list = %d, want 200", rec.Code)
	}
	var out struct {
		Jobs []engine.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].ID != "job-1" {
		t.Fatalf("jobs = %+v, want exactly job-1", out.Jobs)
	}
}

// TestTraceStreamIsJSONLTaxonomy: the SSE stream replays the whole trace,
// every data line parses under the strict JSONL schema, and the stream
// closes with `event: end` carrying the job's final state. The handler
// is invoked synchronously — it returns once the job is terminal, so the
// recorder holds the complete stream.
func TestTraceStreamIsJSONLTaxonomy(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, "GET", "/jobs/job-999/trace", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("trace of unknown job = %d, want 404", rec.Code)
	}
	// fig6 rather than kernels: the trace must actually carry search
	// events for the schema check to mean anything.
	submitAndWait(t, s, `{"kind":"experiment","steps":["fig6"],"models":["Transformer"],"hw_samples":2,"sw_samples":4,"trials":1,"eval":"maestro,cache"}`)
	rec := do(t, s, "GET", "/jobs/job-1/trace", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("trace content type = %q, want text/event-stream", ct)
	}

	var (
		events  int
		lastSeq int64
		ended   bool
		final   string
	)
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			ended = true
		case strings.HasPrefix(line, "data: ") && ended:
			final = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, "data: "):
			ev, err := obs.ParseLine([]byte(strings.TrimPrefix(line, "data: ")))
			if err != nil {
				t.Fatalf("SSE data line is not a valid JSONL trace event: %v\n%s", err, line)
			}
			if ev.Seq != lastSeq+1 {
				t.Fatalf("event seq %d follows %d; replay must be gapless and ordered", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			events++
		case line != "":
			t.Fatalf("unexpected SSE line: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("stream carried no trace events")
	}
	if !ended || final != string(engine.StateDone) {
		t.Fatalf("stream end: ended=%v final=%q, want event: end with %q", ended, final, engine.StateDone)
	}
}

// TestShutdownDrainsAndRefusesSubmissions: while the runner drains a
// running job, submissions are 503 and jobs stay queryable; the drained
// job then finishes.
func TestShutdownDrainsAndRefusesSubmissions(t *testing.T) {
	r := engine.NewRunner(engine.RunnerConfig{Concurrency: 1})
	s := New(r, nil)
	g := holdGate()
	defer g.release()
	running := submit(t, s, `{"kind":"experiment","steps":["fig6"],"models":["Transformer"],"hw_samples":2,"sw_samples":4,"trials":1,"eval":"gate,cache"}`)
	g.step(t) // the job is inside an evaluation and holds the worker
	queued := submit(t, s, kernelsBody)

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdown <- r.Shutdown(ctx)
	}()
	// Shutdown cancels the queue first, so a canceled queued job means
	// the runner is draining.
	if got := waitDone(t, s, queued); got.State != engine.StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", got.State)
	}
	rec := do(t, s, "POST", "/jobs", kernelsBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503\n%s", rec.Code, rec.Body)
	}
	decodeError(t, rec)
	if got := status(t, s, running); got.State != engine.StateRunning {
		t.Fatalf("draining job state = %s, want running", got.State)
	}
	g.release()
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := status(t, s, running); got.State != engine.StateDone {
		t.Fatalf("drained job state = %s (%s), want done", got.State, got.Error)
	}
}

// TestShutdownLeavesNoGoroutines runs the full serve lifecycle — a
// runner with workers, the HTTP surface, a completed job, and an obs
// introspection server — then asserts the goroutine count returns to
// its pre-test baseline after shutdown. It is the runtime half of the
// goroutinejoin analyzer's guarantee: the analyzer proves every spawn
// has a join, this test proves the joins actually fire. On failure it
// dumps every goroutine stack, so the leak names itself.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	r := engine.NewRunner(engine.RunnerConfig{Concurrency: 2})
	s := New(r, obs.NewRegistry())
	ms, err := obs.Serve("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	st := submitAndWait(t, s, kernelsBody)
	if st.State != engine.StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	// Exercise every scrape path before shutdown: the runtime collector
	// and the per-job rollup are pure OnScrape hooks, and the progress
	// endpoint reads only snapshots — none of them may start anything
	// that would survive the joins below.
	for _, path := range []string{
		"/metrics", "/jobs/" + st.ID + "/progress",
	} {
		if rec := do(t, s, "GET", path, ""); rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d\n%s", path, rec.Code, rec.Body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := ms.Close(); err != nil {
		t.Fatalf("obs server close: %v", err)
	}

	// The last joins can trail Close by a scheduler beat; poll briefly
	// before declaring a leak.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after shutdown: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
