package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryBasics covers get-or-create identity and the three metric
// kinds.
func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("evals")
	c.Add(2)
	r.Counter("evals").Add(3)
	if got := r.Counter("evals").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.Gauge("best").Set(1.5)
	if got := r.Gauge("best").Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	h := r.Histogram("fit")
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != 6*time.Millisecond {
		t.Fatalf("histogram snapshot = %+v", s)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 2 {
		t.Fatalf("bucket counts sum to %d, want 2", total)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// the totals must come out exact (the race detector checks the rest).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var inBuckets int64
	for _, b := range s.Buckets {
		inBuckets += b.Count
	}
	if inBuckets != s.Count {
		t.Fatalf("buckets hold %d observations, count is %d", inBuckets, s.Count)
	}
}

// TestMetricsTracer: events become counters weighted by Event.Count,
// durations become histograms, search progress becomes gauges.
func TestMetricsTracer(t *testing.T) {
	reg := NewRegistry()
	tr := NewMetricsTracer(reg)
	if !tr.Enabled() {
		t.Fatal("MetricsTracer must be enabled")
	}
	tr.Emit(Event{Type: CacheHit})
	tr.Emit(Event{Type: CacheHit, N: 3}) // folded by a span: three hits
	tr.Emit(Event{Type: CachePersist, Detail: "recovered", N: 9})
	tr.Emit(Event{Type: EvalDone, Detail: "ok", DurMS: 2})
	tr.Emit(Event{Type: HWPropose, Sample: 7, Detail: "a"})
	tr.Emit(Event{Type: Incumbent, Sample: 7, Value: 42.5})

	if got := reg.Counter("trace.cache.hit").Value(); got != 4 {
		t.Errorf("trace.cache.hit = %d, want 4", got)
	}
	if got := reg.Counter("trace.cache.persist").Value(); got != 1 {
		t.Errorf("trace.cache.persist = %d, want 1 (N of a recovered event is a record count)", got)
	}
	if got := reg.Histogram("dur.eval.done").Count(); got != 1 {
		t.Errorf("dur.eval.done count = %d, want 1", got)
	}
	if got := reg.Gauge("search.best_objective").Value(); got != 42.5 {
		t.Errorf("search.best_objective = %v, want 42.5", got)
	}
	if got := reg.Gauge("search.sample").Value(); got != 7 {
		t.Errorf("search.sample = %v, want 7", got)
	}
}

// TestRegistryPrometheusDeterministic: two registries holding the same
// metrics render byte-identical expositions, whatever order the metrics
// were created in.
func TestRegistryPrometheusDeterministic(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		for _, name := range order {
			r.Counter("c." + name).Add(1)
			r.Gauge(Labeled("g", "job", name)).Set(2)
			r.Histogram("h." + name).Observe(time.Millisecond)
		}
		var b bytes.Buffer
		if err := WritePrometheus(&b, r.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := build([]string{"a", "b", "c", "d"})
	b := build([]string{"d", "c", "b", "a"})
	if a != b {
		t.Fatalf("exposition depends on creation order:\n%s\nvs\n%s", a, b)
	}
}

// TestServeMetricsAndPprof boots the introspection server on a loopback
// port and checks both endpoints answer — the acceptance criterion for
// -metrics-addr.
func TestServeMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("trace.eval.done").Add(3)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	body := get("/metrics")
	if err := ValidatePrometheus(body); err != nil {
		t.Fatalf("/metrics is not a valid exposition: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "\ntrace_eval_done 3\n") {
		t.Fatalf("/metrics lacks trace_eval_done 3:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(string(body), "profile") {
		t.Fatalf("/debug/pprof/ index looks wrong: %.80s", body)
	}
	get("/debug/pprof/cmdline")
}
