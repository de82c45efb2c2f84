package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/obs"
)

// recorder is the traced run's sink. It is an obs.Tracer that keeps every
// event in memory (stamped like the JSONL sink: dense seq, milliseconds
// since open), plus the benchmark's own per-layer counters and the summed
// spans that stand in for sub-millisecond calls. Nothing is written while
// the run is measured; writeJSONL renders the whole trace at the end.
type recorder struct {
	start time.Time

	mu     sync.Mutex
	events []obs.Event
	sums   []sumSpan

	// layers maps a live sw.layer span to the accumulator its proposer
	// wrapper registered, so the evaluator wrapper (called on the same
	// worker goroutine, with that span) can charge its time to the layer.
	layers sync.Map // *obs.Span → *layerAcc

	swSuggestN, swSuggestNS  atomic.Int64
	swObserveNS              atomic.Int64
	hwSuggestNS, hwObserveNS atomic.Int64
	evalCalls, evalItems     atomic.Int64
	evalNS                   atomic.Int64
	layerBusyNS              atomic.Int64
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// Enabled implements obs.Tracer.
func (r *recorder) Enabled() bool { return true }

// Emit implements obs.Tracer.
func (r *recorder) Emit(e obs.Event) {
	r.mu.Lock()
	e.Seq = int64(len(r.events) + 1)
	e.TMS = r.sinceMS(time.Now())
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recorder) sinceMS(t time.Time) float64 { return obs.MS(t.Sub(r.start)) }

// sumSpan is one summed span: the total time and call count of one kind
// of short call (Suggest, Observe, Evaluate) within one sw.layer span.
// Its interval is packed: the sums of one layer are laid end to end from
// the moment the layer's proposer received its span, which keeps them
// inside the parent and disjoint from each other, so self-time arithmetic
// over the tree stays exact even though the calls really interleaved.
type sumSpan struct {
	parent         int64
	kind           string
	startMS, durMS float64
	calls          int
}

// layerAcc accumulates one layer search's short calls. It is confined to
// the worker goroutine running that search.
type layerAcc struct {
	spanAt      time.Time // when the proposer got its span
	first, last time.Time // first Suggest, last Observe

	suggestN, observeN, evalCalls, evalItems int
	suggestNS, observeNS, evalNS             int64
}

// charge adds an evaluator call to the accumulator of the layer span sp,
// or to the run totals when sp is not a registered layer.
func (r *recorder) chargeEval(sp *obs.Span, items int, d time.Duration) {
	if sp != nil {
		if v, ok := r.layers.Load(sp); ok {
			a := v.(*layerAcc)
			a.evalCalls++
			a.evalItems += items
			a.evalNS += int64(d)
			return
		}
	}
	r.evalCalls.Add(1)
	r.evalItems.Add(int64(items))
	r.evalNS.Add(int64(d))
}

// flushLayer folds a finished layer search into the totals and records
// its summed spans under sp (nil when the proposer never got a span).
func (r *recorder) flushLayer(sp *obs.Span, a *layerAcc) {
	r.swSuggestN.Add(int64(a.suggestN))
	r.swSuggestNS.Add(a.suggestNS)
	r.swObserveNS.Add(a.observeNS)
	r.evalCalls.Add(int64(a.evalCalls))
	r.evalItems.Add(int64(a.evalItems))
	r.evalNS.Add(a.evalNS)
	if !a.first.IsZero() {
		r.layerBusyNS.Add(int64(a.last.Sub(a.first)))
	}
	if sp == nil {
		return
	}
	at := r.sinceMS(a.spanAt)
	r.mu.Lock()
	for _, s := range []sumSpan{
		{kind: "bench.sw_suggest", durMS: obs.MS(time.Duration(a.suggestNS)), calls: a.suggestN},
		{kind: "bench.sw_observe", durMS: obs.MS(time.Duration(a.observeNS)), calls: a.observeN},
		{kind: "bench.eval", durMS: obs.MS(time.Duration(a.evalNS)), calls: a.evalCalls},
	} {
		if s.calls == 0 {
			continue
		}
		s.parent, s.startMS = sp.ID(), at
		at += s.durMS
		r.sums = append(r.sums, s)
	}
	r.mu.Unlock()
}

// trace returns the full event stream: the recorded events with the
// summed spans merged in by time, as span.start/span.end pairs with ids
// above every real span's, renumbered densely from 1.
func (r *recorder) trace() []obs.Event {
	r.mu.Lock()
	events := append([]obs.Event(nil), r.events...)
	sums := append([]sumSpan(nil), r.sums...)
	r.mu.Unlock()

	var maxID int64
	for _, e := range events {
		if e.Span > maxID {
			maxID = e.Span
		}
	}
	extra := make([]obs.Event, 0, 2*len(sums))
	for i, s := range sums {
		id := maxID + int64(i) + 1
		extra = append(extra,
			obs.Event{TMS: s.startMS, Type: obs.SpanStart, Span: id, Parent: s.parent, Detail: s.kind, N: s.calls},
			obs.Event{TMS: s.startMS + s.durMS, Type: obs.SpanEnd, Span: id, Parent: s.parent, Detail: s.kind, DurMS: s.durMS, N: s.calls})
	}
	sort.SliceStable(extra, func(i, j int) bool { return extra[i].TMS < extra[j].TMS })

	// Merge by time. On ties a recorded event goes first, so a parent's
	// span.start always precedes a summed child starting at the same
	// instant.
	out := make([]obs.Event, 0, len(events)+len(extra))
	i, j := 0, 0
	for i < len(events) || j < len(extra) {
		if j == len(extra) || (i < len(events) && events[i].TMS <= extra[j].TMS) {
			out = append(out, events[i])
			i++
		} else {
			out = append(out, extra[j])
			j++
		}
	}
	for k := range out {
		out[k].Seq = int64(k + 1)
	}
	return out
}

// writeJSONL writes events one JSON object per line, the obs JSONL format.
func writeJSONL(w io.Writer, events []obs.Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// checkTrace applies the rules of `tracestat -check`: every event passes
// the obs schema, sequence numbers are dense from 1, span ids are fresh,
// every parent reference resolves to a span that has started and not yet
// ended, and every span is closed exactly once.
func checkTrace(events []obs.Event) error {
	closed := map[int64]bool{}
	for i, e := range events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i+1, err)
		}
		if e.Seq != int64(i+1) {
			return fmt.Errorf("event %d has seq %d", i+1, e.Seq)
		}
		switch e.Type {
		case obs.SpanStart:
			if _, seen := closed[e.Span]; seen {
				return fmt.Errorf("event %d reuses span id %d", i+1, e.Span)
			}
			if e.Parent != 0 {
				if done, seen := closed[e.Parent]; !seen || done {
					return fmt.Errorf("event %d: span %d starts under missing or closed parent %d", i+1, e.Span, e.Parent)
				}
			}
			closed[e.Span] = false
		case obs.SpanEnd:
			if done, seen := closed[e.Span]; !seen || done {
				return fmt.Errorf("event %d: span %d ends unopened or twice", i+1, e.Span)
			}
			closed[e.Span] = true
		default:
			if _, seen := closed[e.Parent]; e.Parent != 0 && !seen {
				return fmt.Errorf("event %d references unknown span %d", i+1, e.Parent)
			}
		}
	}
	for id, done := range closed {
		if !done {
			return fmt.Errorf("span %d left open", id)
		}
	}
	return nil
}

// spanNode is one closed span of a trace, with its interval.
type spanNode struct {
	kind     string
	parent   int64
	iv       interval
	children []int64
}

// spanTree rebuilds the closed spans of a trace. A span's interval runs
// from its span.start stamp to its span.end stamp.
func spanTree(events []obs.Event) map[int64]*spanNode {
	nodes := map[int64]*spanNode{}
	for _, e := range events {
		switch e.Type {
		case obs.SpanStart:
			nodes[e.Span] = &spanNode{kind: e.Detail, parent: e.Parent, iv: interval{e.TMS, e.TMS}}
		case obs.SpanEnd:
			if n := nodes[e.Span]; n != nil {
				n.iv.end = e.TMS
				if p := nodes[n.parent]; p != nil {
					p.children = append(p.children, e.Span)
				}
			}
		}
	}
	return nodes
}

// selfMS sums the self time of every span of the given kind.
func selfMS(nodes map[int64]*spanNode, kind string) float64 {
	var total float64
	for _, n := range nodes {
		if n.kind != kind {
			continue
		}
		kids := make([]interval, 0, len(n.children))
		for _, c := range n.children {
			kids = append(kids, nodes[c].iv)
		}
		total += selfTime(n.iv, kids)
	}
	return total
}
