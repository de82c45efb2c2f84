// Package pool provides the bounded worker pool shared by the parallel
// layer search in core and the parallel trial runner in exp. It is a
// deliberately small primitive: indexed fan-out with a concurrency cap,
// no channels to drain and no error plumbing — callers write fn(i)'s
// result into slot i of a pre-sized slice, which keeps output ordering
// (and therefore reproducibility) independent of scheduling.
//
// Granularity: each index is a whole unit of work, not a single
// evaluation. The layer search hands the pool one index per layer, and
// inside fn(i) the driver evaluates that layer's candidate rounds
// through core.EvaluateSpan/EvaluateBatchSpan under the layer's sw.layer
// span — so a worker amortizes per-layer setup across its round's
// candidates in one call instead of paying it per candidate. The pool
// needs no batch awareness of its own; keeping the fan-out boundary at
// the layer is what lets the batched and sequential paths produce
// bit-identical results at any worker count.
//
// Fault containment: a panic inside fn does not take down sibling
// workers or leak goroutines. The pool stops handing out new indices,
// drains the workers that are mid-task, and re-raises the first captured
// panic (as a *WorkerPanic carrying the original value and stack) on the
// calling goroutine. Slots whose fn never ran, or panicked mid-write,
// are untrustworthy — but the caller observes the panic, so it never
// consumes them.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerPanic is the value re-raised by RunCtx on the calling
// goroutine when a worker's fn panicked. Value is the original panic
// value; Stack is the panicking worker's stack trace, captured at
// recovery time (the re-raise necessarily unwinds from the caller, so
// the original stack would otherwise be lost).
type WorkerPanic struct {
	Value any
	Stack []byte
}

// Error makes a WorkerPanic usable with recover-and-inspect error
// handling (e.g. resilience wrappers converting panics to errors).
func (w *WorkerPanic) Error() string {
	return fmt.Sprintf("pool: worker panic: %v\n%s", w.Value, w.Stack)
}

// RunCtx invokes fn(i) once for every i in [0, n), using at most
// workers concurrent goroutines, and returns when all invocations have
// completed. workers <= 0 means runtime.GOMAXPROCS(0); workers == 1 (or
// n <= 1) runs inline with zero goroutine overhead. Work is handed out
// dynamically, so fn must not depend on execution order. If fn panics,
// RunCtx drains the pool and re-raises the first panic as a
// *WorkerPanic.
//
// Cancellation is cooperative: when ctx is canceled, no further indices
// are dispatched, in-flight invocations are drained, and ctx.Err() is
// returned. fn(i) either runs to completion or not at all —
// cancellation never abandons a running invocation, so there are no
// torn writes into slot i and no leaked goroutines. It returns nil when
// all n invocations completed.
func RunCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		next      atomic.Int64
		completed atomic.Int64
		stop      atomic.Bool
		panicked  atomic.Pointer[WorkerPanic]
	)
	if workers == 1 {
		for i := 0; i < n && !stop.Load(); i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			invoke(fn, i, &stop, &panicked)
		}
		if p := panicked.Load(); p != nil {
			panic(p)
		}
		return nil
	}
	var wg sync.WaitGroup
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if invoke(fn, i, &stop, &panicked) {
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	if int(completed.Load()) < n {
		return ctx.Err()
	}
	return nil
}

// invoke runs fn(i) with panic containment, recording the first panic
// and poisoning the dispenser so siblings wind down. It reports whether
// fn completed normally.
func invoke(fn func(int), i int, stop *atomic.Bool, panicked *atomic.Pointer[WorkerPanic]) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			// Poison first: capturing the stack takes long enough for a
			// sibling to run thousands of cheap indices meanwhile.
			stop.Store(true)
			panicked.CompareAndSwap(nil, &WorkerPanic{Value: r, Stack: debug.Stack()})
		}
	}()
	fn(i)
	return true
}
