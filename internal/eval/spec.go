package eval

import (
	"fmt"
	"strings"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/resilience"
	"spotlight/internal/sched"
	"spotlight/internal/sim"
	"spotlight/internal/timeloop"
	"spotlight/internal/workload"
)

// The three bundled backends self-register, so eval.Open and -eval spec
// strings know them by name with no further wiring.
func init() {
	Register("maestro", func() (core.Evaluator, error) { return maestro.New(), nil })
	Register("timeloop", func() (core.Evaluator, error) { return timeloop.New(), nil })
	Register("sim", func() (core.Evaluator, error) { return sim.NewBackend(sim.Options{}), nil })
}

// GuardOptions configures the guard middleware — the resilience.Guard
// policy refitted as a pipeline layer. The zero value disables timeout
// and retries but keeps panic-to-error conversion, exactly like the
// underlying Guard.
type GuardOptions struct {
	Timeout time.Duration // bound on one evaluation; 0 disables
	Retries int           // retries for transient faults
	Backoff time.Duration // base retry backoff, doubling per attempt
	Seed    int64         // decorrelates backoff jitter across runs
	Tracer  obs.Tracer    // receives guard.retry/guard.timeout events; nil disables
}

// configured reports whether the options ask for more than the
// unconditional panic conversion.
func (g GuardOptions) configured() bool { return g.Timeout > 0 || g.Retries > 0 }

// WithGuard returns the fault-containment middleware: panic recovery, a
// per-call timeout, and seeded retry-with-backoff for transient faults.
// This is the only place in the tree that constructs a resilience.Guard;
// call sites compose it by putting "guard" in their pipeline spec.
func WithGuard(opts GuardOptions) Middleware {
	return func(inner layer) layer {
		return &guardLayer{inner: inner, policy: &resilience.Guard{
			Timeout: opts.Timeout,
			Retries: opts.Retries,
			Backoff: opts.Backoff,
			Seed:    opts.Seed,
			Tracer:  opts.Tracer,
		}}
	}
}

// guardLayer applies the resilience.Guard policy to each item of a
// batch separately: every item is its own guarded call into the layer
// below, a batch of one, so a retry or timeout costs that one
// evaluation and no other.
type guardLayer struct {
	inner  layer
	policy *resilience.Guard
}

// Name implements layer. The guard can change what the search observes
// under faults, so — unlike the caches — it shows in the name and
// therefore in the checkpoint fingerprint.
func (g *guardLayer) Name() string { return "guard(" + g.inner.Name() + ")" }

func (g *guardLayer) evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	for i := range ss {
		s := ss[i]
		costs[i], errs[i] = g.policy.Do(sp, a, s, l, func() (maestro.Cost, error) {
			// Buffers of its own: a call abandoned on timeout keeps
			// running after Do returns and must not touch the caller's.
			var one single
			one.ss[0] = s
			g.inner.evaluate(sp, a, one.ss[:], l, one.costs[:], one.errs[:])
			return one.costs[0], one.errs[0]
		})
	}
}

// SpecOptions parameterizes FromSpec: the guard layer's policy, tracing,
// and the persistent cache.
type SpecOptions struct {
	// Guard configures any "guard" token in the spec. When Guard asks
	// for a timeout or retries and the spec has no "guard" token, a
	// guard layer is appended outermost — so a CLI's -eval-timeout
	// keeps working whatever the -eval spec says.
	Guard GuardOptions
	// Tracer, when set, threads trace emission through the whole
	// pipeline: the backend adapter emits eval.done/eval.batch from the
	// same clock reading that feeds Pipeline.Stats (so it sees true
	// backend work — cache hits never reach it) and forwards backend
	// path events, the cache layers report their events to it, and any
	// guard layer reports retries and timeouts. Tracing is observe-only:
	// a traced pipeline returns bit-identical results to an untraced one.
	Tracer obs.Tracer
	// CacheDir, when non-empty, enables the persistent disk cache: a
	// diskcache layer is inserted directly above the backend (under any
	// memo cache) when the spec has no "diskcache" token, journaling to
	// <CacheDir>/<backend>.journal. This is how the CLIs' -cache-dir
	// flag works whatever the -eval spec says. A "diskcache(path=...)"
	// token in the spec overrides the derived location.
	CacheDir string
	// DiskFault injects write faults into the persistent cache journal
	// (test instrumentation; see resilience.FileFault).
	DiskFault *resilience.FileFault
}

// FromSpec builds a pipeline from a comma-separated spec string: the
// first element names the backend (see Backends), each following element
// names a middleware applied in order, innermost first. "sim,cache,guard"
// is the sim backend, memoized, with the guard outermost (so retried
// faults re-enter the cache, and cache hits skip the guard's machinery).
//
// Middleware tokens: "cache" (memo cache with single-flight dedup),
// "diskcache(path=FILE)" (crash-safe persistent cache journaling to
// FILE; bare "diskcache" derives the path from SpecOptions.CacheDir),
// "guard" (panic/timeout/retry policy), and "stats", which is accepted
// for compatibility and adds no layer: every pipeline counts its backend
// work (Pipeline.Stats).
// An unknown backend name returns *UnknownBackendError; an unknown
// middleware token returns a plain error naming the valid tokens.
func FromSpec(spec string, opts SpecOptions) (*Pipeline, error) {
	if opts.Guard.Tracer == nil {
		opts.Guard.Tracer = opts.Tracer // the pipeline tracer covers the guard too
	}
	parts := strings.Split(spec, ",")
	name := strings.TrimSpace(parts[0])
	if name == "" {
		return nil, fmt.Errorf("eval: empty pipeline spec (want \"backend[,middleware...]\", e.g. %q)", "sim,cache,guard")
	}
	backend, err := Open(name)
	if err != nil {
		return nil, err
	}
	disk := func(path string) Middleware {
		return WithDisk(DiskOptions{
			Dir:         opts.CacheDir,
			Path:        path,
			Backend:     backend.Name(),
			Fingerprint: BackendFingerprint(backend),
			Tracer:      opts.Tracer,
			Fault:       opts.DiskFault,
		})
	}

	var mws []Middleware
	hasGuard, hasDisk := false, false
	for _, tok := range parts[1:] {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "cache":
			mws = append(mws, WithCache())
		case tok == "stats":
			// Every pipeline already counts its backend work.
		case tok == "guard":
			mws = append(mws, WithGuard(opts.Guard))
			hasGuard = true
		case tok == "diskcache" || strings.HasPrefix(tok, "diskcache("):
			path, err := parseDiskToken(tok, spec)
			if err != nil {
				return nil, err
			}
			if path == "" && opts.CacheDir == "" {
				return nil, fmt.Errorf("eval: %q in spec %q needs a path (diskcache(path=FILE)) or a cache directory (-cache-dir)", tok, spec)
			}
			mws = append(mws, disk(path))
			hasDisk = true
		case tok == "":
			return nil, fmt.Errorf("eval: empty middleware token in spec %q", spec)
		default:
			return nil, fmt.Errorf("eval: unknown middleware %q in spec %q (middlewares: cache, diskcache(path=FILE), guard, stats)", tok, spec)
		}
	}
	if opts.CacheDir != "" && !hasDisk {
		mws = append([]Middleware{disk("")}, mws...)
	}
	if opts.Guard.configured() && !hasGuard {
		mws = append(mws, WithGuard(opts.Guard))
	}
	return chain(opts.Tracer, backend, mws...), nil
}

// parseDiskToken extracts the optional path argument of a diskcache
// spec token: "" for bare "diskcache", FILE for "diskcache(path=FILE)".
func parseDiskToken(tok, spec string) (string, error) {
	if tok == "diskcache" {
		return "", nil
	}
	inner, closed := strings.CutSuffix(strings.TrimPrefix(tok, "diskcache("), ")")
	path, hasPath := strings.CutPrefix(inner, "path=")
	if !closed || !hasPath || path == "" {
		return "", fmt.Errorf("eval: malformed %q in spec %q (want diskcache(path=FILE))", tok, spec)
	}
	return path, nil
}

// MustFromSpec is FromSpec for static specs known to be valid; it panics
// on error. Intended for defaults and tests, not user input.
func MustFromSpec(spec string, opts SpecOptions) *Pipeline {
	p, err := FromSpec(spec, opts)
	if err != nil {
		panic(err)
	}
	return p
}
