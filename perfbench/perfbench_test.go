package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
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

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {50, 80}, {99, 89}, {100, 90}, {1000, 90},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		// The rule itself: at least ten samples lie beyond the percentile.
		if p := tailPercentile(tc.n); tc.n >= 20 && float64(tc.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than 10 samples beyond it", tc.n, p)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

// Two workers run overlapping layer searches inside one trial. Summing
// the children would claim 145 ms of a 100 ms span (the >100% coverage
// error); the union covers 90 ms, leaving 10 ms of self time.
func TestSelfTimeUsesUnionOfOverlappingChildren(t *testing.T) {
	trial := interval{0, 100}
	layers := []interval{{0, 60}, {10, 70}, {65, 90}, {95, 120}}
	if got := unionLength(trial, layers); got != 95 {
		t.Errorf("union = %v, want 95 (children clipped to the parent)", got)
	}
	if got := selfTime(trial, layers[:3]); got != 10 {
		t.Errorf("self time = %v, want 10", got)
	}

	// The same fixture as a trace.
	var events []obs.Event
	emit := func(ms float64, typ obs.EventType, span, parent int64, kind string) {
		events = append(events, obs.Event{Seq: int64(len(events) + 1), TMS: ms, Type: typ, Span: span, Parent: parent, Detail: kind})
	}
	emit(0, obs.SpanStart, 1, 0, "trial")
	emit(0, obs.SpanStart, 2, 1, "sw.layer")
	emit(10, obs.SpanStart, 3, 1, "sw.layer")
	emit(60, obs.SpanEnd, 2, 1, "sw.layer")
	emit(65, obs.SpanStart, 4, 1, "sw.layer")
	emit(70, obs.SpanEnd, 3, 1, "sw.layer")
	emit(90, obs.SpanEnd, 4, 1, "sw.layer")
	emit(100, obs.SpanEnd, 1, 0, "trial")
	nodes := spanTree(events)
	if got := selfMS(nodes, "trial"); got != 10 {
		t.Errorf("trial self time from trace = %v, want 10", got)
	}
	if got := selfMS(nodes, "sw.layer"); got != 145 {
		t.Errorf("leaf self time = %v, want 145 (leaves have no children)", got)
	}
}

// A stub spotlightd whose submit handler takes 30 ms to answer: the
// client must count that wait, because latency runs from the send.
func TestJobLatencyIsMeasuredFromSend(t *testing.T) {
	const delay = 30 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(engine.JobStatus{ID: "job-1"})
	})
	mux.HandleFunc("GET /jobs/job-1/trace", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "data: {\"seq\":1}\n\ndata: {\"seq\":2}\n\nevent: end\ndata: done\n\n")
	})
	mux.HandleFunc("GET /jobs/job-1/artifacts/design.json", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"value":7}`)
	})
	mux.HandleFunc("GET /jobs/job-1/artifacts/history.csv", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "sample,elapsed_s,value\n1,0.5,7\n")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &serveClient{base: srv.URL, http: srv.Client(), artifacts: map[string]string{}}
	timing, err := c.job(engine.JobSpec{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if timing.submitMS < obs.MS(delay) {
		t.Errorf("submit took %v ms, less than the server's %v delay", timing.submitMS, delay)
	}
	if timing.totalMS < timing.submitMS || timing.firstEventMS < timing.submitMS {
		t.Errorf("later stages measured from a later origin: %+v", timing)
	}
	if timing.events != 2 || timing.best != 7 {
		t.Errorf("counted %d SSE events and best %v, want 2 and 7", timing.events, timing.best)
	}
	// A repeat of the spec with identical artifacts passes the check;
	// elapsed_s (wall clock) is not compared.
	if _, err := c.job(engine.JobSpec{Seed: 3}); err != nil {
		t.Errorf("repeat with identical artifacts failed: %v", err)
	}
	if err := c.check(engine.JobSpec{Seed: 3}, "different"); err == nil {
		t.Error("differing artifacts of a repeated spec were accepted")
	}
}

func TestClosedLoopRunsEachRequestOnceWithBoundedClients(t *testing.T) {
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	seen := map[int]int{}
	closedLoop(3, 50, func(i int) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		mu.Lock()
		seen[i]++
		mu.Unlock()
		inFlight.Add(-1)
	})
	if len(seen) != 50 {
		t.Errorf("ran %d distinct requests, want 50", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("request %d ran %d times", i, n)
		}
	}
	if peak.Load() > 3 {
		t.Errorf("%d requests in flight, want at most one per client (3)", peak.Load())
	}
}

// plainEvaluator has no optional interfaces.
type plainEvaluator struct{}

func (plainEvaluator) Name() string { return "plain" }
func (plainEvaluator) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	return maestro.Cost{DelayCycles: 1}, nil
}

func TestEvaluatorDecoratorMirrorsInterfaces(t *testing.T) {
	pipe := eval.MustFromSpec("maestro,cache,stats", eval.SpecOptions{})
	maestroBackend, err := eval.Open("maestro")
	if err != nil {
		t.Fatal(err)
	}
	simBackend, err := eval.Open("sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []core.Evaluator{pipe, maestroBackend, simBackend, plainEvaluator{}} {
		w, err := wrapEvaluator(ev, newRecorder())
		if err != nil {
			t.Errorf("%T: %v", ev, err)
			continue
		}
		if got, want := evaluatorCaps(w), evaluatorCaps(ev); got != want {
			t.Errorf("%T: decorator capabilities %05b, wrapped %05b", ev, got, want)
		}
	}
}

func TestProposerDecoratorsMirrorInterfaces(t *testing.T) {
	for _, name := range []string{"spotlight", "random", "ga"} {
		strat, err := engine.StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.RunConfig{Space: hw.EdgeSpace(), Budget: hw.EdgeBudget(), SWSamples: 4}
		ts := &tracedStrategy{inner: strat, rec: newRecorder()}
		rng := rand.New(rand.NewSource(1))
		m, _ := workload.ByName("MobileNetV2")
		a := hw.EdgeSpace().Random(rng)
		check := func(kind string, inner, outer any) {
			_, ir := inner.(core.RoundProposer)
			_, or := outer.(core.RoundProposer)
			_, ic := inner.(core.SpanCarrier)
			_, oc := outer.(core.SpanCarrier)
			if ir != or || ic != oc {
				t.Errorf("%s %s: wrapped round=%v span=%v, decorator round=%v span=%v", name, kind, ir, ic, or, oc)
			}
		}
		check("sw", strat.NewSW(cfg, rand.New(rand.NewSource(2)), a, m.Layers[0]), ts.NewSW(cfg, rand.New(rand.NewSource(2)), a, m.Layers[0]))
		check("hw", strat.NewHW(cfg, rand.New(rand.NewSource(2))), ts.NewHW(cfg, rand.New(rand.NewSource(2))))
	}
}

// The traced run must be observe-only: at the same seed it produces the
// same History, best design and pipeline counters as the untraced run,
// for a proposer that carries spans (spotlight) and one that takes the
// batched round path without spans (random).
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, strategy := range []string{"spotlight", "random"} {
		w := codesignWorkload{strategy: strategy, model: "MobileNetV2", eval: "maestro,cache,stats", hw: 2, sw: 10, jobs: 2}
		var plain, traced repResult
		if err := w.run(7, nil, &plain); err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		if err := w.run(7, rec, &traced); err != nil {
			t.Fatal(err)
		}
		if plain.Digest != traced.Digest || plain.Best != traced.Best {
			t.Errorf("%s: traced outputs differ from untraced", strategy)
		}
		if plain.Failed != 0 || traced.Failed != 0 {
			t.Errorf("%s: failures %v %v", strategy, plain.Errors, traced.Errors)
		}
		if n := traced.Layers["core.sw_suggest.calls"]; n != traced.Layers["eval.pipeline.items"] {
			t.Errorf("%s: %v suggestions but %v evaluated items", strategy, n, traced.Layers["eval.pipeline.items"])
		}
		if err := checkTrace(rec.trace()); err != nil {
			t.Errorf("%s: trace fails the check: %v", strategy, err)
		}
	}
}

func TestSpotlightdRepetitionChecksOutputs(t *testing.T) {
	w := serveWorkload{models: []string{"MobileNetV2"}, eval: "maestro,cache", hw: 1, sw: 4, jobs: 6, clients: 2, concurrency: 2}
	var res repResult
	rec := newRecorder()
	if err := w.run(3, rec, t.TempDir(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 6 || res.Failed != 0 {
		t.Fatalf("attempted %d failed %d: %v", res.Attempted, res.Failed, res.Errors)
	}
	if res.Layers["eval.cache.hits"] == 0 || res.Layers["eval.disk.appends"] == 0 {
		t.Errorf("repeated specs should hit the memo cache and new ones append: %v", res.Layers)
	}
	if err := checkTrace(rec.trace()); err != nil {
		t.Errorf("trace fails the check: %v", err)
	}
}

// BENCHMARK.json must name exactly the metrics the command prints.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, wl := range b.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
	}
	same := func(what string, file []struct{ Name, Unit string }, code []struct{ name, unit string }) {
		var a, c []string
		for _, m := range file {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, m := range code {
			c = append(c, m.name+" "+m.unit)
		}
		if strings.Join(a, ",") != strings.Join(c, ",") {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\ncode           %v", what, a, c)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestReportPrintsEveryMetricLast(t *testing.T) {
	reps := []repResult{
		{WallS: 2, Evals: 100, JobMS: []float64{1, 2}, Attempted: 2, Digest: "d", Best: 5},
		{WallS: 2, Evals: 100, JobMS: []float64{1, 2}, Attempted: 2, Digest: "x", Best: 5},
	}
	var out bytes.Buffer
	if err := report(&out, reps, []float64{0.1}, nil, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("differing digests must fail the run: %+v", res)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
}
