// Command tracestat summarizes a structured trace written by spotlight
// or experiments with -trace: where the time went (per event type),
// how the search converged (incumbent improvements by hardware sample),
// and what the evaluation pipeline did (cache, guard, backend paths) —
// all reconstructed from the JSONL stream alone, with no access to the
// run that produced it.
//
// Examples:
//
//	tracestat run.jsonl            # full summary
//	tracestat -check run.jsonl     # validate every line against the event schema
//	spotlight -trace /dev/stdout ... | tracestat -
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"spotlight/internal/obs"
)

func main() {
	check := flag.Bool("check", false, "validate only: parse every line against the event schema and report the first violation")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-check] FILE  (use - for stdin)")
		os.Exit(2)
	}
	in := os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracestat:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	var err error
	if *check {
		err = checkTrace(in, os.Stdout)
	} else {
		err = summarize(in, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

// readTrace parses a JSONL stream strictly, failing on the first line
// that does not decode or does not satisfy the event schema.
func readTrace(r io.Reader) ([]obs.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var events []obs.Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		e, err := obs.ParseLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// checkTrace is the -check mode: schema-validate every line, verify
// the sequence numbers are dense from 1 (which is what one JSONL sink
// guarantees — a concatenation of several traces is not one trace), and
// verify span well-formedness.
func checkTrace(r io.Reader, w io.Writer) error {
	events, err := readTrace(r)
	if err != nil {
		return err
	}
	for i, e := range events {
		if e.Seq != int64(i)+1 {
			return fmt.Errorf("event %d has seq %d; want dense sequence numbers from 1", i+1, e.Seq)
		}
	}
	total, open, err := checkSpans(events)
	if err != nil {
		return err
	}
	switch {
	case total == 0:
		fmt.Fprintf(w, "%d events: schema OK\n", len(events))
	case open == 0:
		fmt.Fprintf(w, "%d events: schema OK (%d spans, all closed)\n", len(events), total)
	default:
		fmt.Fprintf(w, "%d events: schema OK (%d spans, %d left open)\n", len(events), total, open)
	}
	return nil
}

// checkSpans verifies span causality: span ids are fresh, every parent
// reference — on span.start and on annotated ordinary events — resolves
// to a span that has started, no span starts under an already-closed
// parent, and no span is closed twice. Spans still open at end of trace
// are reported, not rejected: a canceled or crashed run legitimately
// truncates its stream mid-span.
func checkSpans(events []obs.Event) (total, open int, err error) {
	closed := map[int64]bool{} // id → span.end seen
	for i, e := range events {
		switch e.Type {
		case obs.SpanStart:
			if _, seen := closed[e.Span]; seen {
				return 0, 0, fmt.Errorf("event %d: span.start reuses span id %d", i+1, e.Span)
			}
			if e.Parent != 0 {
				done, seen := closed[e.Parent]
				if !seen {
					return 0, 0, fmt.Errorf("event %d: span %d starts under unknown parent %d", i+1, e.Span, e.Parent)
				}
				if done {
					return 0, 0, fmt.Errorf("event %d: span %d starts under already-closed parent %d", i+1, e.Span, e.Parent)
				}
			}
			closed[e.Span] = false
			total++
			open++
		case obs.SpanEnd:
			done, seen := closed[e.Span]
			if !seen {
				return 0, 0, fmt.Errorf("event %d: span.end for unknown span %d", i+1, e.Span)
			}
			if done {
				return 0, 0, fmt.Errorf("event %d: span %d closed twice", i+1, e.Span)
			}
			closed[e.Span] = true
			open--
		default:
			if e.Parent != 0 {
				if _, seen := closed[e.Parent]; !seen {
					return 0, 0, fmt.Errorf("event %d: %s event references unknown parent span %d", i+1, e.Type, e.Parent)
				}
			}
		}
	}
	return total, open, nil
}

// summarize renders the full report.
func summarize(r io.Reader, w io.Writer) error {
	events, err := readTrace(r)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("empty trace")
	}

	counts := map[obs.EventType]int{}
	durTotal := map[obs.EventType]float64{}
	durCount := map[obs.EventType]int{}
	evalOutcomes := map[string]int{}
	backendPaths := map[string]int{}
	persistCounts := map[string]int{}
	var batchCalls, batchedItems int
	var tool string
	var budgeted, completed int
	type improvement struct {
		sample int
		best   float64
	}
	var conv []improvement
	// Span tree, reconstructed from span.start/span.end pairs. childDur
	// accumulates the cumulative time of direct children so self time is
	// cum − childDur without a second pass.
	type spanRec struct {
		kind       string
		parent     int64
		dur        float64
		childDur   float64
		start, end float64 // t_ms of span.start and span.end
		children   int
		closed     bool
	}
	spans := map[int64]*spanRec{}
	var spanOrder []int64
	// Individual evals, kept for the slowest-N list and per-backend
	// attribution (Scope on eval.done is the backend name the eval
	// middleware observed).
	type evalRec struct {
		durMS   float64
		outcome string
		scope   string
		parent  int64
	}
	var evals []evalRec
	for _, e := range events {
		// A span folds its counter-only events into one per kind with
		// N = the count; Count weighs them back, so a folded trace and
		// its one-line-per-evaluation expansion report the same totals.
		counts[e.Type] += int(e.Count())
		// span.end durations are reported by the span section below;
		// folding them into the flat phase table would double-count the
		// leaf work they contain.
		if e.DurMS > 0 && e.Type != obs.SpanEnd {
			durTotal[e.Type] += e.DurMS
			durCount[e.Type]++
		}
		switch e.Type {
		case obs.RunStart:
			tool, budgeted = e.Detail, e.N
		case obs.RunEnd:
			completed = e.N
		case obs.Incumbent:
			conv = append(conv, improvement{sample: e.Sample, best: e.Value})
		case obs.EvalDone:
			evalOutcomes[e.Detail]++
			if e.DurMS > 0 {
				evals = append(evals, evalRec{durMS: e.DurMS, outcome: e.Detail, scope: e.Scope, parent: e.Parent})
			}
		case obs.EvalBatch:
			batchCalls++
			batchedItems += e.N
		case obs.BackendPath:
			backendPaths[e.Detail]++
		case obs.CachePersist:
			// Detail is a kind, optionally with a message ("degraded: ...");
			// aggregate by kind.
			kind, _, _ := strings.Cut(e.Detail, ":")
			persistCounts[kind] += int(e.Count())
		case obs.SpanStart:
			if _, seen := spans[e.Span]; !seen {
				spans[e.Span] = &spanRec{kind: e.Detail, parent: e.Parent, start: e.TMS}
				spanOrder = append(spanOrder, e.Span)
				if p := spans[e.Parent]; p != nil {
					p.children++
				}
			}
		case obs.SpanEnd:
			if s := spans[e.Span]; s != nil && !s.closed {
				s.closed = true
				s.dur = e.DurMS
				s.end = e.TMS
				if p := spans[s.parent]; p != nil {
					p.childDur += e.DurMS
				}
			}
		}
	}

	span := events[len(events)-1].TMS - events[0].TMS
	fmt.Fprintf(w, "trace: %d events spanning %.1f ms\n", len(events), span)
	if tool != "" {
		fmt.Fprintf(w, "run: %s, %d hardware samples budgeted, %d completed\n", tool, budgeted, completed)
	}

	fmt.Fprintf(w, "\nphase time (sum of event durations; span.end excluded):\n")
	var typs []obs.EventType
	var grand float64
	for typ, total := range durTotal { //lint:allow maporder(sort.Slice below orders typs before anything is printed)
		typs = append(typs, typ)
		grand += total
	}
	sort.Slice(typs, func(i, j int) bool {
		if durTotal[typs[i]] != durTotal[typs[j]] { //lint:allow floateq(exact inequality picks the tie-break branch; any tolerance would make the sort order depend on it)
			return durTotal[typs[i]] > durTotal[typs[j]]
		}
		return typs[i] < typs[j]
	})
	for _, typ := range typs {
		fmt.Fprintf(w, "  %-18s %10.1f ms  %5.1f%%  (%d events)\n",
			typ, durTotal[typ], 100*durTotal[typ]/grand, durCount[typ])
	}
	if len(typs) == 0 {
		fmt.Fprintf(w, "  (no events carry durations)\n")
	}

	if len(conv) > 0 {
		fmt.Fprintf(w, "\nconvergence (%d of %d proposals improved the incumbent):\n",
			len(conv), counts[obs.HWPropose])
		fmt.Fprintf(w, "  sample        best\n")
		for _, c := range conv {
			fmt.Fprintf(w, "  %6d  %10.6g\n", c.sample, c.best)
		}
	}

	hits, misses := counts[obs.CacheHit], counts[obs.CacheMiss]
	if hits+misses > 0 {
		fmt.Fprintf(w, "\ncache: hits=%d misses=%d (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
	if len(persistCounts) > 0 {
		fmt.Fprintf(w, "persistent cache: %s\n", formatCounts(persistCounts))
	}
	if n := counts[obs.GuardTimeout]; n > 0 {
		fmt.Fprintf(w, "guard: timeouts=%d\n", n)
	}
	if len(evalOutcomes) > 0 {
		fmt.Fprintf(w, "evals: %s\n", formatCounts(evalOutcomes))
	}
	if batchCalls > 0 {
		fmt.Fprintf(w, "batches: %d eval.batch calls covering %d evaluations (mean batch size %.1f)\n",
			batchCalls, batchedItems, float64(batchedItems)/float64(batchCalls))
	}
	if len(backendPaths) > 0 {
		fmt.Fprintf(w, "backend paths: %s\n", formatCounts(backendPaths))
	}
	if n := counts[obs.DABOFit]; n > 0 {
		fmt.Fprintf(w, "surrogate: %d fits, %d degradations\n", n, counts[obs.DABODegraded])
	}

	if len(spanOrder) > 0 {
		open := 0
		for _, id := range spanOrder {
			if !spans[id].closed {
				open++
			}
		}
		if open == 0 {
			fmt.Fprintf(w, "\nspans: %d, all closed\n", len(spanOrder))
		} else {
			fmt.Fprintf(w, "\nspans: %d, %d left open\n", len(spanOrder), open)
		}

		// Per-kind cumulative vs self time. Self time is a span's duration
		// minus its direct children's durations — what the span spent that
		// no child accounts for. Rounding can push the difference a hair
		// negative; clamp.
		type kindAgg struct {
			count int
			cum   float64
			self  float64
		}
		kinds := map[string]*kindAgg{}
		var kindOrder []string
		// The critical-path line compares the union of leaf-span intervals
		// with the union of root-span intervals, so leaves that overlap on
		// parallel workers count once.
		var roots, leaves []interval
		for _, id := range spanOrder {
			s := spans[id]
			if !s.closed {
				continue
			}
			agg := kinds[s.kind]
			if agg == nil {
				agg = &kindAgg{}
				kinds[s.kind] = agg
				kindOrder = append(kindOrder, s.kind)
			}
			agg.count++
			agg.cum += s.dur
			self := s.dur - s.childDur
			if self < 0 {
				self = 0
			}
			agg.self += self
			if spans[s.parent] == nil {
				roots = append(roots, interval{s.start, s.end})
			}
			if s.children == 0 {
				leaves = append(leaves, interval{s.start, s.end})
			}
		}
		sort.Slice(kindOrder, func(i, j int) bool {
			a, b := kinds[kindOrder[i]], kinds[kindOrder[j]]
			if a.cum != b.cum { //lint:allow floateq(exact inequality picks the tie-break branch; any tolerance would make the sort order depend on it)
				return a.cum > b.cum
			}
			return kindOrder[i] < kindOrder[j]
		})
		fmt.Fprintf(w, "span time (cumulative vs self):\n")
		fmt.Fprintf(w, "  kind               count     cum ms    self ms\n")
		for _, kind := range kindOrder {
			agg := kinds[kind]
			fmt.Fprintf(w, "  %-18s %5d %10.1f %10.1f\n", kind, agg.count, agg.cum, agg.self)
		}
		if rootMS := unionMS(roots); rootMS > 0 {
			fmt.Fprintf(w, "critical path: leaf spans cover %.1f%% of the root span's %.1f ms\n",
				100*unionMS(leaves)/rootMS, rootMS)
		}

		if len(evals) > 0 {
			sort.SliceStable(evals, func(i, j int) bool { return evals[i].durMS > evals[j].durMS })
			top := evals
			if len(top) > 5 {
				top = top[:5]
			}
			fmt.Fprintf(w, "slowest evals:\n")
			for _, ev := range top {
				scope := ev.scope
				if scope == "" {
					scope = "(unscoped)"
				}
				in := ""
				if s := spans[ev.parent]; s != nil {
					in = "  in " + s.kind
				}
				fmt.Fprintf(w, "  %6.1f ms  %-8s %s%s\n", ev.durMS, ev.outcome, scope, in)
			}
			backendMS := map[string]float64{}
			backendN := map[string]int{}
			for _, ev := range evals {
				scope := ev.scope
				if scope == "" {
					scope = "(unscoped)"
				}
				backendMS[scope] += ev.durMS
				backendN[scope]++
			}
			names := make([]string, 0, len(backendMS))
			for name := range backendMS { //lint:allow maporder(sorted before rendering, two lines down)
				names = append(names, name)
			}
			sort.Strings(names)
			parts := make([]string, 0, len(names))
			for _, name := range names {
				parts = append(parts, fmt.Sprintf("%s=%.1f ms/%d evals", name, backendMS[name], backendN[name]))
			}
			fmt.Fprintf(w, "eval time by backend: %s\n", strings.Join(parts, "  "))
		}
	}
	return nil
}

// interval is a span's extent on the trace clock, in t_ms.
type interval struct{ start, end float64 }

// unionMS returns the total length of the union of the intervals.
func unionMS(ivs []interval) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total float64
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.start > cur.end:
			total += cur.end - cur.start
			cur = iv
		case iv.end > cur.end:
			cur.end = iv.end
		}
	}
	if len(ivs) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// formatCounts renders a name→count map as "a=1 b=2", sorted by name for
// deterministic output.
func formatCounts(m map[string]int) string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, m[name]))
	}
	return strings.Join(parts, " ")
}
