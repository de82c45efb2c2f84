package obs

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusRoundTrip proves the emitter and the strict
// validator agree: a registry exercising every metric kind — counters,
// gauges (including negative and labeled), multi-bucket histograms —
// renders to an exposition that ValidatePrometheus accepts, and two
// scrapes of an unchanged registry are byte-identical.
func TestWritePrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("trace.eval.done").Add(41)
	reg.Counter(Labeled("job.evals", "job", "job-1")).Add(7)
	reg.Gauge("search.best_objective").Set(-12.75)
	reg.Gauge(Labeled("job.trials.done", "job", "job-1")).Set(3)
	reg.Gauge(Labeled("job.trials.done", "job", "job-2")).Set(1)
	h := reg.Histogram("dur.span.trial")
	for _, d := range []time.Duration{
		500 * time.Nanosecond, 3 * time.Microsecond, 900 * time.Microsecond,
		2 * time.Millisecond, 2 * time.Millisecond, 40 * time.Millisecond,
	} {
		h.Observe(d)
	}

	var a, b bytes.Buffer
	if err := WritePrometheus(&a, reg.Scrape()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := ValidatePrometheus(a.Bytes()); err != nil {
		t.Fatalf("exposition rejected by validator:\n%s\nerror: %v", a.Bytes(), err)
	}
	if err := WritePrometheus(&b, reg.Scrape()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two scrapes of an unchanged registry differ")
	}
	for _, want := range []string{
		"# TYPE trace_eval_done counter\n",
		"trace_eval_done 41\n",
		`job_evals{job="job-1"} 7` + "\n",
		"search_best_objective -12.75\n",
		`job_trials_done{job="job-1"} 3` + "\n",
		`job_trials_done{job="job-2"} 1` + "\n",
		"# TYPE dur_span_trial_seconds histogram\n",
		`dur_span_trial_seconds_bucket{le="+Inf"} 6` + "\n",
		"dur_span_trial_seconds_count 6\n",
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, a.String())
		}
	}
}

// TestExpositionGolden pins the whole /metrics body byte for byte for
// one fixed registry: counters, negative and labeled gauges (label
// values holding a backslash, a quote and a newline, and a label set
// given out of key order), a name that needs sanitising and starts
// with a digit, an empty histogram, and a histogram with observations
// on exact powers of two µs, which land in the bucket they bound. The
// golden file is written by hand; the same bytes must pass the strict
// validator.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("trace.eval.done").Add(41)
	reg.Counter(Labeled("job.evals", "job", "job-1")).Add(7)
	reg.Counter("2x.speed-up").Add(2)
	reg.Gauge("search.best_objective").Set(-12.75)
	reg.Gauge(Labeled("job.trials.done", "job", "a\\b\"c\nd")).Set(3)
	reg.Gauge(Labeled("job.trials.done", "job", "job-2")).Set(1)
	reg.Gauge(Labeled("job.cache.hit.rate", "model", "ResNet-50", "job", "job-1")).Set(0.25)
	reg.Histogram("dur.empty")
	h := reg.Histogram("dur.span.trial")
	for _, d := range []time.Duration{
		0, 500 * time.Nanosecond, time.Microsecond, 1500 * time.Nanosecond,
		2 * time.Microsecond, 3 * time.Microsecond, 4 * time.Microsecond,
		1024 * time.Microsecond, 2 * time.Millisecond, 40 * time.Millisecond,
	} {
		h.Observe(d)
	}

	var got bytes.Buffer
	if err := WritePrometheus(&got, reg.Snapshot()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from testdata/exposition.golden\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	if err := ValidatePrometheus(got.Bytes()); err != nil {
		t.Errorf("golden exposition rejected by validator: %v", err)
	}
}

// TestWritePrometheusHistogramEdges pins the histogram edge cases: a
// created-but-never-observed histogram still renders a valid family
// (just the +Inf bucket, zero _sum/_count), a single observation
// yields one cumulative bucket that agrees with +Inf and _count, and an
// observation of exactly a bucket's bound counts under that bound's
// `le`, which is inclusive.
func TestWritePrometheusHistogramEdges(t *testing.T) {
	t.Run("zero observations", func(t *testing.T) {
		reg := NewRegistry()
		reg.Histogram("dur.eval.done") // registered, never observed
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, reg.Scrape()); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if err := ValidatePrometheus(buf.Bytes()); err != nil {
			t.Fatalf("empty histogram rejected:\n%s\nerror: %v", buf.Bytes(), err)
		}
		for _, want := range []string{
			`dur_eval_done_seconds_bucket{le="+Inf"} 0` + "\n",
			"dur_eval_done_seconds_sum 0\n",
			"dur_eval_done_seconds_count 0\n",
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("exposition missing %q:\n%s", want, buf.String())
			}
		}
	})
	t.Run("single bucket", func(t *testing.T) {
		reg := NewRegistry()
		reg.Histogram("dur.one").Observe(3 * time.Microsecond) // bit length 2: (2, 4] µs
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, reg.Scrape()); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if err := ValidatePrometheus(buf.Bytes()); err != nil {
			t.Fatalf("single-bucket histogram rejected:\n%s\nerror: %v", buf.Bytes(), err)
		}
		for _, want := range []string{
			`dur_one_seconds_bucket{le="4e-06"} 1` + "\n",
			`dur_one_seconds_bucket{le="+Inf"} 1` + "\n",
			"dur_one_seconds_count 1\n",
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("exposition missing %q:\n%s", want, buf.String())
			}
		}
	})
	t.Run("inclusive upper bound", func(t *testing.T) {
		reg := NewRegistry()
		h := reg.Histogram("dur.edge")
		h.Observe(1500 * time.Nanosecond)
		h.Observe(2 * time.Microsecond) // exactly the (1, 2] µs bucket's bound
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, reg.Scrape()); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		for _, want := range []string{
			`dur_edge_seconds_bucket{le="2e-06"} 2` + "\n",
			`dur_edge_seconds_bucket{le="+Inf"} 2` + "\n",
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("exposition missing %q:\n%s", want, buf.String())
			}
		}
	})
}

// TestWritePrometheusLabelEscaping proves label values survive the trip
// through Labeled → exposition → validator with backslash, quote, and
// newline escaped per the text format.
func TestWritePrometheusLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	key := Labeled("job.evals", "job", "a\\b\"c\nd")
	reg.Counter(key).Add(1)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Scrape()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("escaped labels rejected:\n%s\nerror: %v", buf.Bytes(), err)
	}
	want := `job_evals{job="a\\b\"c\nd"} 1` + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, buf.String())
	}
}

// TestHistogramObserveDuringScrape races workers observing into a
// histogram against continuous scrapes; under -race this proves the
// lock-free Observe path and the snapshot path are safe concurrently,
// and every rendered exposition is internally consistent.
func TestHistogramObserveDuringScrape(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("dur.race") // exists before the first scrape
	reg.Counter("trace.race")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := reg.Histogram("dur.race")
			c := reg.Counter("trace.race")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(time.Duration(i%1000) * time.Microsecond)
				c.Add(1)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, reg.Scrape()); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if err := ValidatePrometheus(buf.Bytes()); err != nil {
			t.Fatalf("scrape %d invalid: %v\n%s", i, err, buf.Bytes())
		}
	}
	close(stop)
	wg.Wait()
}

// TestRuntimeMetricsOnScrape proves EnableRuntimeMetrics is a pure
// scrape-time hook: no gauges exist before the first scrape, every
// scrape refreshes them, and repeated Enable calls install one hook.
func TestRuntimeMetricsOnScrape(t *testing.T) {
	reg := NewRegistry()
	reg.EnableRuntimeMetrics()
	reg.EnableRuntimeMetrics() // idempotent
	if snap := reg.Snapshot(); len(snap.Gauges) != 0 {
		t.Fatalf("gauges exist before first scrape: %v", snap.Gauges)
	}
	snap := reg.Scrape()
	for _, name := range []string{
		"go.goroutines", "go.heap.alloc.bytes", "go.heap.objects",
		"go.gc.cycles", "go.gc.pause.total.ms",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("scrape missing runtime gauge %s", name)
		}
	}
	if g := snap.Gauges["go.goroutines"]; g < 1 {
		t.Errorf("go.goroutines = %v, want >= 1", g)
	}
}
