// Package spotlightlint enforces the repo's determinism and hygiene
// invariants mechanically. Spotlight's reproduction guarantee — the
// search History is bit-identical at any worker count, checkpoints
// resume to the same trajectory, surrogate fits reject non-finite
// observations — holds only while no code path consults the wall clock,
// the global RNG, or Go's randomized map iteration order. Before this
// package those were conventions backed by property tests; each analyzer
// here turns one of them into a build-time error.
//
// Analyzers (run them all with `go run ./cmd/lint ./...`):
//
//   - nowallclock: no time.Now/Since/Until and no global math/rand in
//     deterministic packages; inject a *rand.Rand instead.
//   - maporder: no map iteration that appends, writes output, feeds a
//     hash, or accumulates floats in order-sensitive packages, unless
//     the keys are sorted.
//   - floateq: no ==/!= on floating-point operands outside tests.
//   - nonfinite: no math.NaN/math.Inf flowing into Cost fields or
//     checkpoint encoding outside the sanctioned hygiene helpers.
//   - closecheck: no discarded Close/Sync errors in the packages that
//     write durable state (journal, checkpoints, result artifacts).
//   - exitcheck: no os.Exit or log.Fatal* outside cmd/ and examples/
//     packages — a service must never be killed by library code.
//   - goroutinejoin: every go statement in the long-running packages is
//     joined via WaitGroup, done-channel, or context — no
//     fire-and-forget goroutines in the engine/serve layer.
//   - lockbalance: Lock/RLock released in the same function with
//     matching flavor; straight-line double-locks and
//     returns-while-holding are flagged.
//   - mutexcopy: no by-value copies of types carrying sync.Mutex,
//     WaitGroup, or sync/atomic state.
//   - ctxcancel: cancel funcs from context.WithCancel/WithTimeout are
//     called or escape — a lost cancel is a leak per call site.
//   - spanbalance: spans from obs.StartSpan/ChildOrRoot/Child* are
//     ended or escape — a lost span never emits span.end and leaves its
//     subtree open in every trace consumer.
//
// Any finding can be suppressed with an inline or preceding-line
// annotation naming its reason: //lint:allow wallclock(latency counter).
// The reason is mandatory. See lintkit for the mechanism.
package spotlightlint

import (
	"go/types"
	"strings"

	"spotlight/internal/analysis/lintkit"
)

// deterministicPackages are the packages whose behaviour must be a pure
// function of (inputs, seed): everything on the search trajectory from
// proposal through cost model to surrogate fit. internal/dabo is listed
// for when the DABO core splits out of internal/core; extra entries are
// harmless because matching is exact.
var deterministicPackages = []string{
	"spotlight/internal/dabo",
	"spotlight/internal/eval/diskcache",
	"spotlight/internal/gp",
	"spotlight/internal/search",
	"spotlight/internal/sched",
	"spotlight/internal/core",
	"spotlight/internal/eval",
	"spotlight/internal/sim",
	"spotlight/internal/maestro",
	"spotlight/internal/timeloop",
	"spotlight/internal/stats",
	"spotlight/internal/linalg",
	// internal/obs is deterministic in everything except the clock: its
	// maps and floats feed trace lines and /metrics output that runs are
	// diffed by. nowallclock exempts it by policy (see wallClockExempt) —
	// it is the one sanctioned home for wall-clock reads.
	"spotlight/internal/obs",
}

// outputPackages additionally covers code whose *artifacts* must be
// reproducible even though wall-clock use is fine there: the experiment
// harness and the CLIs write CSVs and stdout that runs are diffed by, so
// map-iteration order must not leak into them.
var outputPackages = append([]string{
	"spotlight/internal/exp",
	"spotlight/internal/engine",
	"spotlight/internal/serve",
	"spotlight/cmd/spotlight",
	"spotlight/cmd/experiments",
	"spotlight/cmd/spotlightd",
	"spotlight/cmd/modelinfo",
	"spotlight/cmd/tracestat",
}, deterministicPackages...)

func inList(path string, list []string) bool {
	for _, p := range list {
		if path == p {
			return true
		}
	}
	return false
}

// isDeterministic reports whether pkg is on the strict determinism list.
func isDeterministic(pkg *types.Package) bool {
	return inList(pkg.Path(), deterministicPackages)
}

// isOutputSensitive reports whether pkg's output ordering must be
// reproducible.
func isOutputSensitive(pkg *types.Package) bool {
	return inList(pkg.Path(), outputPackages)
}

// isTestFile reports whether the position's file is a _test.go file.
// The loader only feeds non-test files, but fixtures and future callers
// may not, and floateq's contract explicitly exempts tests.
func isTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*lintkit.Analyzer {
	return []*lintkit.Analyzer{
		NoWallClock,
		MapOrder,
		FloatEq,
		NonFinite,
		CloseCheck,
		ExitCheck,
		GoroutineJoin,
		LockBalance,
		MutexCopy,
		CtxCancel,
		SpanBalance,
	}
}
