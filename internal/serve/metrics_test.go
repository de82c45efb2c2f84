package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"spotlight/internal/engine"
	"spotlight/internal/obs"
)

// newMetricsServer stands up a server wired the way spotlightd wires
// it: the server-wide MetricsTracer feeds the mounted registry, and
// with a tracer set the shared pipeline's backend adapter emits
// eval.done events, which span routing delivers to per-job registries.
func newMetricsServer(t *testing.T) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	r := engine.NewRunner(engine.RunnerConfig{Concurrency: 1, Tracer: obs.NewMetricsTracer(reg)})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := r.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return New(r, reg), reg
}

// tinySearchBody is the cheapest search submission (a few
// milliseconds). A search job counts trials against its budget and
// generates eval and cache traffic, which is what the progress and
// rollup assertions below are about.
const tinySearchBody = `{"kind":"search","models":["Transformer"],"hw_samples":2,"sw_samples":4,"eval":"maestro,cache"}`

// TestProgressEndpoint: unknown jobs are 404; a finished job serves a
// JSON progress snapshot whose throughput figures come from the job's
// own registry.
func TestProgressEndpoint(t *testing.T) {
	s, _ := newMetricsServer(t)
	if rec := do(t, s, "GET", "/jobs/nope/progress", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("progress for unknown job = %d, want 404\n%s", rec.Code, rec.Body)
	} else {
		decodeError(t, rec)
	}

	st := submitAndWait(t, s, tinySearchBody)
	if st.State != engine.StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	rec := do(t, s, "GET", "/jobs/"+st.ID+"/progress", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("progress = %d\n%s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("progress Content-Type = %q, want application/json", ct)
	}
	var p engine.JobProgress
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("progress body is not a JobProgress: %v\n%s", err, rec.Body)
	}
	if p.ID != st.ID || p.State != engine.StateDone {
		t.Errorf("progress identity = %s/%s, want %s/done", p.ID, p.State, st.ID)
	}
	if p.TrialsDone != 2 || p.TrialsTotal != 2 {
		t.Errorf("trials = %d/%d, want 2/2", p.TrialsDone, p.TrialsTotal)
	}
	if p.Evals <= 0 {
		t.Errorf("evals = %d, want > 0", p.Evals)
	}
	if p.CacheHits+p.CacheMisses <= 0 {
		t.Error("no cache traffic in progress snapshot")
	}
	if p.ElapsedS <= 0 || p.Events <= 0 {
		t.Errorf("elapsed/events = %v/%d, want both > 0", p.ElapsedS, p.Events)
	}
	if p.ETAS != 0 {
		t.Errorf("ETA = %v on a terminal job, want 0", p.ETAS)
	}
}

// TestMetricsFormatNegotiation pins the /metrics contract: JSON by
// default, Prometheus 0.0.4 text on request (query param or Accept),
// HEAD answering with a GET's headers and no body, and 405 for writes.
// The Prometheus body must survive the strict validator and carry the
// per-job rollup gauges plus the runtime collector's output.
func TestMetricsFormatNegotiation(t *testing.T) {
	s, _ := newMetricsServer(t)
	st := submitAndWait(t, s, tinySearchBody)
	if st.State != engine.StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}

	rec := do(t, s, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q, want application/json", ct)
	}
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("default /metrics body is not a snapshot: %v", err)
	}
	if snap.Counters["trace.eval.done"] <= 0 {
		t.Errorf("JSON snapshot missing eval traffic: %v", snap.Counters)
	}

	rec = do(t, s, "GET", "/metrics?format=prometheus", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics?format=prometheus = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("prometheus Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	body := rec.Body.Bytes()
	if err := obs.ValidatePrometheus(body); err != nil {
		t.Fatalf("exposition rejected by validator: %v\n%s", err, body)
	}
	for _, want := range []string{
		`job_trials_done{job="` + st.ID + `"}`,
		"go_goroutines ",
		"trace_eval_done ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if cl, err := strconv.Atoi(rec.Header().Get("Content-Length")); err != nil || cl != len(body) {
		t.Errorf("Content-Length = %q, want %d", rec.Header().Get("Content-Length"), len(body))
	}

	// An Accept header naming text/plain — what a real Prometheus
	// scraper sends — negotiates the same format without the query.
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec2 := httptest.NewRecorder()
	req.Header.Set("Accept", "text/plain")
	s.Handler().ServeHTTP(rec2, req)
	if ct := rec2.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Accept text/plain Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	if err := obs.ValidatePrometheus(rec2.Body.Bytes()); err != nil {
		t.Fatalf("Accept-negotiated exposition invalid: %v", err)
	}

	// ?format=json wins over Accept: the query is the explicit ask.
	req = httptest.NewRequest("GET", "/metrics?format=json", nil)
	rec2 = httptest.NewRecorder()
	req.Header.Set("Accept", "text/plain")
	s.Handler().ServeHTTP(rec2, req)
	if ct := rec2.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("format=json Content-Type = %q, want application/json", ct)
	}

	// HEAD: same headers a GET would carry, empty body.
	req = httptest.NewRequest("HEAD", "/metrics?format=prometheus", nil)
	rec2 = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("HEAD /metrics = %d", rec2.Code)
	}
	if ct := rec2.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("HEAD Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	if cl, err := strconv.Atoi(rec2.Header().Get("Content-Length")); err != nil || cl <= 0 {
		t.Errorf("HEAD Content-Length = %q, want a positive length", rec2.Header().Get("Content-Length"))
	}
	if rec2.Body.Len() != 0 {
		t.Errorf("HEAD carried a %d-byte body", rec2.Body.Len())
	}

	if rec := do(t, s, "POST", "/metrics", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	} else if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
		t.Errorf("405 Allow = %q, want \"GET, HEAD\"", allow)
	}
}
