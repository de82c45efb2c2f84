package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named metrics table: counters, gauges, and duration
// histograms. The hot path — bumping an already-created metric — is a
// single atomic operation; the registry lock is taken only to create (or
// look up) a metric by name, so callers that cache the returned handle
// never contend. Get-or-create semantics make instrumentation sites
// self-registering: asking for a name creates it on first use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	hookMu      sync.Mutex
	hooks       []func()
	runtimeOnce sync.Once
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotone event count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric (float64, atomically stored as bits).
type Gauge struct{ v atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the last value set (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// histBuckets is the number of power-of-two latency buckets: bucket 0
// counts durations up to 1 µs and bucket i > 0 those in (2^(i-1), 2^i]
// µs, upper bound inclusive like the exposition's `le`, which spans
// sub-microsecond calls to ~9 hours.
const histBuckets = 45

// Histogram accumulates durations into log₂ microsecond buckets with an
// atomic count and sum, so Observe is lock-free and safe from any number
// of workers. The zero Histogram is ready to use.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	// Bucket by d rounded up to whole µs: ⌈d/µs⌉−1 = ⌊(d−1)/µs⌋ has
	// bit-length i exactly when ⌈d/µs⌉ lies in (2^(i-1), 2^i].
	i := 0
	if d > 0 {
		i = bits.Len64(uint64((d - 1) / time.Microsecond))
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// ObserveMS records a duration given in milliseconds, the unit trace
// events carry.
func (h *Histogram) ObserveMS(ms float64) {
	h.Observe(time.Duration(ms * float64(time.Millisecond)))
}

// Count returns how many durations were observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// BucketCount is one non-empty histogram bucket: Count durations fell in
// (UpperUS/2, UpperUS] microseconds ([0, 1] for the first bucket).
type BucketCount struct {
	UpperUS int64
	Count   int64
}

// HistogramSnapshot is a point-in-time view of one histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets []BucketCount
}

// Snapshot returns the histogram's current totals and non-empty buckets
// in ascending bound order. Buckets are read before the totals: Observe
// bumps count before its bucket, so this order guarantees the bucket sum
// never exceeds the count even while observers race the snapshot —
// which is what keeps the Prometheus rendering's cumulative-bucket /
// +Inf invariant intact under concurrent load.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{UpperUS: 1 << i, Count: n})
		}
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sumNS.Load())
	return s
}

// RegistrySnapshot is a point-in-time copy of every metric, as exported
// at /metrics by WritePrometheus.
type RegistrySnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := RegistrySnapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// OnScrape registers a hook run by Scrape before the snapshot is taken:
// the pull-model complement to MetricsTracer's push. Hooks refresh
// gauges whose source of truth lives elsewhere — the runtime collector,
// spotlightd's per-job progress rollup — exactly when a scraper asks,
// with no background sampler to leak. Hooks run unlocked and may
// therefore use the full registry API; they must be safe for concurrent
// scrapes.
func (r *Registry) OnScrape(fn func()) {
	if fn == nil {
		return
	}
	r.hookMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.hookMu.Unlock()
}

// Scrape runs the OnScrape hooks, then snapshots: the read path behind
// /metrics.
func (r *Registry) Scrape() RegistrySnapshot {
	r.hookMu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	r.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	return r.Snapshot()
}

// MetricsTracer folds trace events into a registry: every event bumps a
// per-type counter by the occurrences it stands for (Event.Count),
// events carrying a duration feed a per-type histogram, and
// search-progress events keep live gauges current — which is how
// `-metrics-addr` exposes a running search's state without a second
// instrumentation path.
type MetricsTracer struct{ reg *Registry }

// NewMetricsTracer returns a tracer feeding reg.
func NewMetricsTracer(reg *Registry) *MetricsTracer { return &MetricsTracer{reg: reg} }

// Enabled implements Tracer.
func (m *MetricsTracer) Enabled() bool { return true }

// Emit implements Tracer.
func (m *MetricsTracer) Emit(e Event) {
	m.reg.Counter("trace." + string(e.Type)).Add(e.Count())
	if e.DurMS > 0 {
		name := "dur." + string(e.Type)
		if e.Type == SpanEnd && e.Detail != "" {
			// Span durations histogram per span kind — dur.span.trial,
			// dur.span.sw.layer — which is what the /jobs/{id}/progress
			// and critical-path views aggregate.
			name = "dur.span." + e.Detail
		}
		m.reg.Histogram(name).ObserveMS(e.DurMS)
	}
	switch e.Type {
	case RunStart:
		m.reg.Gauge("search.budget").Set(float64(e.N))
	case HWPropose:
		m.reg.Gauge("search.sample").Set(float64(e.Sample))
	case Incumbent:
		m.reg.Gauge("search.best_objective").Set(e.Value)
		m.reg.Gauge("search.incumbent_sample").Set(float64(e.Sample))
	}
}
