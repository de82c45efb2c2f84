package pool

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var counts [n]atomic.Int64
		RunCtx(context.Background(), n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: fn(%d) ran %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const n, workers = 200, 4
	var inflight, peak atomic.Int64
	RunCtx(context.Background(), n, workers, func(int) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inflight.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent invocations, cap is %d", p, workers)
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	RunCtx(context.Background(), 0, 4, func(int) { t.Fatal("fn called for n=0") })
	ran := 0
	RunCtx(context.Background(), 1, 4, func(i int) { ran++ })
	if ran != 1 {
		t.Fatalf("n=1 ran fn %d times", ran)
	}
}

func TestRunReRaisesWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic was swallowed", workers)
				}
				wp, ok := r.(*WorkerPanic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *WorkerPanic", workers, r)
				}
				if wp.Value != "boom-7" {
					t.Fatalf("workers=%d: panic value = %v, want boom-7", workers, wp.Value)
				}
				if len(wp.Stack) == 0 {
					t.Fatalf("workers=%d: worker stack not captured", workers)
				}
			}()
			RunCtx(context.Background(), 50, workers, func(i int) {
				if i == 7 {
					panic("boom-7")
				}
			})
		}()
		waitForGoroutines(t, before)
	}
}

func TestRunPanicStopsDispatch(t *testing.T) {
	var after atomic.Int64
	func() {
		defer func() { _ = recover() }()
		RunCtx(context.Background(), 10_000, 2, func(i int) {
			if i == 0 {
				panic("early")
			}
			after.Add(1)
		})
	}()
	// The pool must stop handing out work shortly after the panic; a few
	// in-flight indices are fine, finishing all 10k is not.
	if got := after.Load(); got > 1_000 {
		t.Fatalf("%d indices ran after the panic; dispatch was not poisoned", got)
	}
}

func TestRunCtxCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := RunCtx(ctx, 10_000, workers, func(i int) {
			if ran.Add(1) == 5 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > 1_000 {
			t.Fatalf("workers=%d: %d invocations after cancel", workers, got)
		}
	}
}

func TestRunCtxCompletedRunReturnsNil(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	if err := RunCtx(ctx, 64, 4, func(int) { ran.Add(1) }); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if ran.Load() != 64 {
		t.Fatalf("ran %d of 64", ran.Load())
	}
}

func TestRunCtxDrainsInFlightWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished atomic.Int64
	err := RunCtx(ctx, 100, 4, func(i int) {
		started.Add(1)
		cancel()
		time.Sleep(time.Millisecond)
		finished.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started.Load() != finished.Load() {
		t.Fatalf("started %d but finished %d: cancellation abandoned in-flight work",
			started.Load(), finished.Load())
	}
}

// waitForGoroutines polls until the goroutine count returns to (near) the
// baseline, failing the test if pool goroutines are still alive after a
// grace period.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), base)
}
