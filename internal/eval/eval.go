// Package eval unifies access to the cost-model backends behind one
// composable evaluation pipeline. The paper's §VIII anticipates swapping
// in "more costly but more accurate evaluation backends", and every
// consumer of the cost model — the nested daBO driver in internal/core,
// the baselines in internal/search, the figure harnesses in
// internal/exp, and both CLIs — needs the same supporting machinery
// around whichever backend it runs: fault containment, memoization, and
// instrumentation. This package provides that machinery once:
//
//   - A named backend registry: Register associates a name with a
//     constructor, Open instantiates by name, and Backends lists what is
//     available. The three bundled backends (maestro, timeloop, sim)
//     self-register.
//   - A middleware chain: Chain(backend, mw...) lifts a backend into
//     the pipeline's layer contract (one batch-shaped evaluation method
//     per layer; a single evaluation is a batch of one) and wraps it in
//     layers that each preserve the evaluator contract. The bundled
//     middlewares are WithCache (a sharded, concurrency-safe memo
//     cache of published results), WithDisk (a crash-safe
//     persistent cache), and WithGuard (panic and timeout
//     containment). The backend adapter itself keeps
//     atomic eval/invalid/error/latency counters (Pipeline.Stats), so
//     every pipeline counts the backend work it actually did.
//   - A spec language: FromSpec("sim,cache,guard") builds the whole
//     pipeline from one flag-friendly string, which is how the CLIs and
//     the experiment harness configure evaluation.
//
// A Pipeline satisfies core.Evaluator, so it drops into
// core.RunConfig.Eval unchanged. An uncached, unguarded pipeline is a
// pure pass-through: it produces bit-identical results (and therefore
// bit-identical search History) to calling the backend directly.
package eval

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/sim"
	"spotlight/internal/workload"
)

// Factory constructs one backend instance. Factories are invoked once
// per Open call, so every pipeline owns its backend (stateful backends
// like sim's hybrid never alias across pipelines).
type Factory func() (core.Evaluator, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register associates a backend name with its constructor. Registering
// an empty name, a nil factory, or a duplicate name panics: registration
// happens at init time, where a loud failure beats a shadowed backend.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || f == nil {
		panic("eval: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic("eval: Register called twice for backend " + name)
	}
	registry[name] = f
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// UnknownBackendError is returned by Open (and FromSpec) for a name with
// no registered backend. It lists what is registered so CLIs can print
// an actionable message instead of a bare failure.
type UnknownBackendError struct {
	Name       string
	Registered []string
}

// Error implements error.
func (e *UnknownBackendError) Error() string {
	return fmt.Sprintf("eval: unknown backend %q (registered backends: %s)",
		e.Name, strings.Join(e.Registered, ", "))
}

// Open instantiates the named backend. An unknown name returns an
// *UnknownBackendError listing the registered names.
func Open(name string) (core.Evaluator, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, &UnknownBackendError{Name: name, Registered: Backends()}
	}
	return f()
}

// layer is one stage of a pipeline: the backend adapter innermost, and
// each middleware wrapping the stage below it. A layer has exactly one
// evaluation method. evaluate fills costs[i] and errs[i] for ss[i]; the
// caller owns all three slices, which have equal length. A single
// evaluation is a batch of one, and a nil span means untraced. Every
// (costs[i], errs[i]) pair must be bit-identical to what the backend's
// own Evaluate returns for ss[i] (same cost bits, same error text, same
// errors.Is classification), and evaluate must be safe for concurrent
// calls whenever the backend's Evaluate is.
type layer interface {
	Name() string
	evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error)
}

// Middleware is one layer of an evaluation pipeline: it wraps the layer
// below it in another. Middlewares must preserve the evaluator contract
// stated on layer — in particular the error classification (errors
// wrapping maestro.ErrInvalid mark infeasible points).
type Middleware func(layer) layer

// Pipeline is a backend composed with its middleware stack. It
// implements core.Evaluator and its span and batch extensions, each a
// thin adapter onto the outermost layer's one evaluation method, plus
// Validate, which core.RunConfig checks before a run starts. The
// backend adapter's counters, and the cache and disk layers when
// present, are retained for reporting.
type Pipeline struct {
	backend core.Evaluator // the backend the chain was built on
	outer   layer          // fully composed chain
	cache   *Cache         // nil when the chain has no cache layer
	stats   *Stats         // the backend adapter's counters; never nil
	disk    *Disk          // nil when the chain has no persistent cache layer
}

// Chain composes a backend with middlewares, innermost first: the first
// middleware wraps the backend directly, the last sees every call first.
// When the backend is sim's hybrid, its path events (simulated/fallback)
// are wired into the pipeline's Stats, so backend-specific counters live
// with the pipeline rather than the backend.
func Chain(backend core.Evaluator, mw ...Middleware) *Pipeline {
	return chain(nil, backend, mw...)
}

// chain is Chain with a tracer: the backend adapter reports eval.done,
// eval.batch and backend.path to it, and the cache and guard layers
// their own events.
func chain(tr obs.Tracer, backend core.Evaluator, mw ...Middleware) *Pipeline {
	b := lift(backend, tr)
	p := &Pipeline{backend: backend, outer: b, stats: &b.stats}
	for _, m := range mw {
		if m == nil {
			continue
		}
		p.outer = m(p.outer)
		switch v := p.outer.(type) {
		case *Cache:
			p.cache, v.tr = v, tr
		case *Disk:
			p.disk = v
		case *guardLayer:
			v.tr = tr
		}
	}
	if sb, ok := backend.(*sim.Backend); ok {
		sb.Events = p.stats
	}
	return p
}

// single is the pooled one-item buffer behind Pipeline.EvaluateSpan, so
// a warm cache hit through the single-evaluation entry point allocates
// nothing.
type single struct {
	ss    [1]sched.Schedule
	costs [1]maestro.Cost
	errs  [1]error
}

var singles = sync.Pool{New: func() any { return new(single) }}

// Evaluate implements core.Evaluator: an untraced batch of one.
func (p *Pipeline) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	return p.EvaluateSpan(nil, a, s, l)
}

// EvaluateSpan implements core.SpanEvaluator: a batch of one under sp.
// The span parents every event the layers emit for this call and routes
// it to the span's sink, so each job sharing a pipeline sees only its
// own evaluations.
func (p *Pipeline) EvaluateSpan(sp *obs.Span, a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	b := singles.Get().(*single)
	b.ss[0] = s
	p.outer.evaluate(sp, a, b.ss[:], l, b.costs[:], b.errs[:])
	cost, err := b.costs[0], b.errs[0]
	b.errs[0] = nil
	singles.Put(b)
	return cost, err
}

// EvaluateBatch implements core.BatchEvaluator: an untraced batch.
func (p *Pipeline) EvaluateBatch(a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error) {
	return p.EvaluateBatchSpan(nil, a, ss, l)
}

// EvaluateBatchSpan implements core.SpanBatchEvaluator, handing the
// whole batch and the caller's span to the outermost layer.
func (p *Pipeline) EvaluateBatchSpan(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error) {
	costs := make([]maestro.Cost, len(ss))
	errs := make([]error, len(ss))
	p.outer.evaluate(sp, a, ss, l, costs, errs)
	return costs, errs
}

// Name implements core.Evaluator. Trajectory-neutral layers (the memo
// and disk caches) are name-transparent, so a pipeline's name — and with
// it the checkpoint fingerprint — depends only on the layers that can
// change what the search observes (the backend, and guard under faults).
func (p *Pipeline) Name() string { return p.outer.Name() }

// Validate reports whether the pipeline is runnable: a backend must be
// present, and every layer must have wrapped rather than dropped its
// inner evaluator. core.RunConfig calls this before a search starts.
func (p *Pipeline) Validate() error {
	if p == nil {
		return errors.New("eval: nil pipeline")
	}
	if p.backend == nil {
		return errors.New("eval: pipeline has no backend")
	}
	if p.outer == nil {
		return errors.New("eval: pipeline chain is broken (middleware returned nil)")
	}
	if p.backend.Name() == "" {
		return errors.New("eval: backend has an empty name")
	}
	return nil
}

// Cache returns the pipeline's cache layer, or nil.
func (p *Pipeline) Cache() *Cache { return p.cache }

// Stats returns the counters of the backend work the pipeline did.
func (p *Pipeline) Stats() *Stats { return p.stats }

// Disk returns the pipeline's persistent cache layer, or nil.
func (p *Pipeline) Disk() *Disk { return p.disk }

// Close releases pipeline resources — today, flushing and closing the
// persistent cache journal. Pipelines without a disk layer close
// trivially; the CLIs call this (and check the error) on every exit
// path, including signal-driven ones.
func (p *Pipeline) Close() error {
	if p.disk == nil {
		return nil
	}
	return p.disk.Close()
}

// Report renders the pipeline's counters — backend work first, then the
// memo and disk caches when present — as human-readable lines, for the
// CLIs to print after a run.
func (p *Pipeline) Report() string {
	var b strings.Builder
	s := p.stats.Snapshot()
	fmt.Fprintf(&b, "eval stats [%s]: evals=%d ok=%d invalid=%d errors=%d avg=%s\n",
		s.Backend, s.Evals, s.OK, s.Invalid, s.Errors, s.AvgLatency())
	for _, ev := range s.EventNames() {
		fmt.Fprintf(&b, "eval stats [%s]: %s=%d\n", s.Backend, ev, s.Events[ev])
	}
	if p.cache != nil {
		c := p.cache.Snapshot()
		fmt.Fprintf(&b, "eval cache: hits=%d misses=%d entries=%d\n",
			c.Hits, c.Misses, c.Entries)
	}
	if p.disk != nil {
		if s := p.disk.Store(); s != nil {
			d := s.Snapshot()
			mode := "rw"
			switch {
			case d.Degraded:
				mode = "degraded"
			case d.ReadOnly:
				mode = "ro"
			}
			fmt.Fprintf(&b, "eval diskcache [%s]: hits=%d misses=%d appends=%d entries=%d recovered=%d dropped=%dB mode=%s\n",
				s.Path(), d.Hits, d.Misses, d.Puts, d.Entries, d.Recovered, d.DroppedBytes, mode)
		} else {
			fmt.Fprintf(&b, "eval diskcache: disabled (%v)\n", p.disk.OpenErr())
		}
	}
	return b.String()
}
