package search

// This file declares which software proposers support round batching
// (core.RoundProposer): a proposer advertises how many upcoming Suggest
// calls are independent of intervening Observe feedback, and the nested
// driver evaluates a round of that many candidates in one
// core.EvaluateBatchSpan call. The contract is strict — a round must
// draw exactly the same RNG stream whether or not Observe calls are
// interleaved — which is what keeps batched and unbatched Histories
// bit-identical. HASCO's Q-agent is not a RoundProposer: its Suggest
// reads the visit counts and Q-values that Observe updates, so the
// driver runs it in rounds of one.

// feedbackFreeRound is the round size advertised by proposers whose
// suggestions never depend on feedback; the driver caps each round at
// the remaining sample budget, so the value only needs to exceed any
// plausible per-layer budget.
const feedbackFreeRound = 1 << 20

// RoundSize implements core.RoundProposer: random sampling consumes
// only its own RNG, so the whole budget is one feedback-free round.
func (randomSW) RoundSize() int { return feedbackFreeRound }

// RoundSize implements core.RoundProposer: the dataflow rotation
// advances on Suggest alone and Observe is a no-op, so ConfuciuX's
// template sweep is one feedback-free round.
func (*fixedDataflowSW) RoundSize() int { return feedbackFreeRound }

// RoundSize implements core.RoundProposer for the GA: while the
// population is seeding, every suggestion is an independent random
// draw, so the remaining seed samples batch as one round; once the
// population is full, each child is bred from the fitnesses of all
// prior observations, so rounds collapse to single suggestions.
func (w *gaSW) RoundSize() int {
	if !w.pop.full() {
		return w.pop.capacity - len(w.pop.members)
	}
	return 1
}
