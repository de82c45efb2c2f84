package core

import (
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// BatchEvaluator is the optional fast path of Evaluator: an evaluator
// that can evaluate many candidate schedules against one (accelerator,
// layer) pair in a single call implements it. eval.Pipeline implements
// it; backends do not, and get batches through the pipeline's backend
// adapter (maestro's EvaluateTo). The batch contract (see DESIGN.md §12):
//
//   - Results are positional: costs[i]/errs[i] correspond to ss[i], with
//     len(costs) == len(errs) == len(ss).
//   - Every (costs[i], errs[i]) pair is bit-for-bit what Evaluate(a,
//     ss[i], l) would return — same cost fields, same error strings,
//     same errors.Is classification — so batching is purely a
//     throughput optimization, never a semantic change.
//   - Implementations must be safe for concurrent EvaluateBatch calls
//     whenever their Evaluate is.
type BatchEvaluator interface {
	Evaluator
	EvaluateBatch(a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error)
}

// EvaluateBatch evaluates a batch through ev, using the native batch
// path when ev implements BatchEvaluator and falling back to a
// sequential loop otherwise. The fallback is what keeps every
// eval.FromSpec composition working unchanged: a non-batch layer
// anywhere in a middleware chain simply degrades that chain to per-item
// calls without changing a single result bit.
func EvaluateBatch(ev Evaluator, a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error) {
	if b, ok := ev.(BatchEvaluator); ok {
		return b.EvaluateBatch(a, ss, l)
	}
	costs := make([]maestro.Cost, len(ss))
	errs := make([]error, len(ss))
	for i := range ss {
		costs[i], errs[i] = ev.Evaluate(a, ss[i], l)
	}
	return costs, errs
}

// RoundProposer is the optional batching hook of SWProposer: a proposer
// implements it when its next RoundSize() Suggest calls are independent
// of any intervening Observe calls, so the driver may collect that many
// candidates up front and evaluate them in one EvaluateBatchSpan call,
// delivering the Observe feedback afterwards in suggestion order. Any
// other proposer is driven in rounds of one.
//
// RoundSize is consulted before each round and may change as the
// proposer's state evolves (a genetic searcher batches its whole
// initial population, then drops to 1 once selection pressure makes
// each suggestion depend on the previous observation). The driver caps
// the round at the remaining sample budget; proposers whose suggestions
// never depend on feedback simply return a number at least as large as
// any plausible budget. A RoundSize below 1 is treated as 1.
type RoundProposer interface {
	SWProposer
	RoundSize() int
}
