package eval

import (
	"fmt"
	"strings"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sim"
	"spotlight/internal/timeloop"
)

// The three bundled backends self-register, so eval.Open and -eval spec
// strings know them by name with no further wiring.
func init() {
	Register("maestro", func() (core.Evaluator, error) { return maestro.New(), nil })
	Register("timeloop", func() (core.Evaluator, error) { return timeloop.New(), nil })
	Register("sim", func() (core.Evaluator, error) { return sim.NewBackend(sim.Options{}), nil })
}

// SpecOptions parameterizes FromSpec: the guard layer's timeout,
// tracing, and the persistent cache.
type SpecOptions struct {
	// GuardTimeout bounds one evaluation behind any "guard" token in
	// the spec; 0 disables the timeout and a negative value is an
	// error. When it is positive and the spec has no "guard" token, a
	// guard layer is appended outermost — so a CLI's -eval-timeout
	// keeps working whatever the -eval spec says.
	GuardTimeout time.Duration
	// Tracer, when set, threads trace emission through the whole
	// pipeline: the backend adapter emits eval.done/eval.batch from the
	// same clock reading that feeds Pipeline.Stats (so it sees true
	// backend work — cache hits never reach it) and forwards backend
	// path events, the cache layers report their events to it, and any
	// guard layer reports its timeouts. Tracing is observe-only:
	// a traced pipeline returns bit-identical results to an untraced one.
	Tracer obs.Tracer
	// CacheDir, when non-empty, enables the persistent disk cache: a
	// diskcache layer is inserted directly above the backend (under any
	// memo cache) when the spec has no "diskcache" token, journaling to
	// <CacheDir>/<backend>.journal. This is how the CLIs' -cache-dir
	// flag works whatever the -eval spec says. A "diskcache(path=...)"
	// token in the spec overrides the derived location.
	CacheDir string
}

// FromSpec builds a pipeline from a comma-separated spec string: the
// first element names the backend (see Backends), each following element
// names a middleware applied in order, innermost first. "sim,cache,guard"
// is the sim backend, memoized, with the guard outermost (so cache hits
// skip the guard's machinery).
//
// Middleware tokens: "cache" (sharded memo cache),
// "diskcache(path=FILE)" (crash-safe persistent cache journaling to
// FILE; bare "diskcache" derives the path from SpecOptions.CacheDir),
// "guard" (panic and timeout containment), and "stats", which is accepted
// for compatibility and adds no layer: every pipeline counts its backend
// work (Pipeline.Stats).
// An unknown backend name returns *UnknownBackendError; an unknown
// middleware token returns a plain error naming the valid tokens.
func FromSpec(spec string, opts SpecOptions) (*Pipeline, error) {
	if opts.GuardTimeout < 0 {
		return nil, fmt.Errorf("eval: negative guard timeout %v", opts.GuardTimeout)
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
			mws = append(mws, WithGuard(opts.GuardTimeout))
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
	if opts.GuardTimeout > 0 && !hasGuard {
		mws = append(mws, WithGuard(opts.GuardTimeout))
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
