package eval

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// faultEval is a scriptable backend: it blocks on release when one is
// set, then returns fail's error, or a fixed cost when fail is nil.
type faultEval struct {
	calls   atomic.Int64
	release chan struct{}
	fail    func() error
}

func (f *faultEval) Name() string { return "fault" }

func (f *faultEval) Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error) {
	f.calls.Add(1)
	if f.release != nil {
		<-f.release
	}
	if f.fail != nil {
		return maestro.Cost{}, f.fail()
	}
	return maestro.Cost{DelayCycles: 100, EnergyNJ: 5}, nil
}

func testPoint() (hw.Accel, sched.Schedule, workload.Layer) {
	tr := randomTriples(1, 1)[0]
	return tr.a, tr.s, tr.l
}

func TestGuardConvertsPanicToError(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		p := Chain(&faultEval{fail: func() error { panic("kaboom") }}, WithGuard(timeout))
		a, s, l := testPoint()
		if _, err := p.Evaluate(a, s, l); !errors.Is(err, ErrPanic) {
			t.Fatalf("timeout %v: err = %v, want ErrPanic", timeout, err)
		}
		if got := p.Name(); got != "guard(fault)" {
			t.Fatalf("Name() = %q", got)
		}
	}
}

// TestGuardPassesBackendErrorsThrough: a backend error reaches the
// caller unchanged, from one backend call — the guard never retries.
func TestGuardPassesBackendErrorsThrough(t *testing.T) {
	permanent := errors.New("bad geometry")
	inner := &faultEval{fail: func() error { return permanent }}
	a, s, l := testPoint()
	if _, err := Chain(inner, WithGuard(time.Minute)).Evaluate(a, s, l); !errors.Is(err, permanent) {
		t.Fatalf("err = %v, want the backend's error", err)
	}
	if n := inner.calls.Load(); n != 1 {
		t.Fatalf("backend called %d times, want 1", n)
	}
}

func TestGuardTimesOutHungEvaluator(t *testing.T) {
	inner := &faultEval{release: make(chan struct{})}
	defer close(inner.release)
	p := Chain(inner, WithGuard(20*time.Millisecond))
	a, s, l := testPoint()
	start := time.Now()
	_, err := p.Evaluate(a, s, l)
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrTimeout wrapping DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("guard took %v to give up on a hung call", elapsed)
	}
}

// TestGuardBoundsAbandonedCalls: against a backend that hangs until
// released, concurrent callers strand at most maxAbandoned goroutines
// (plus one per caller racing past the cap check) however many calls
// time out, calls at the cap fail without reaching the backend, and
// every stranded goroutine exits once the backend returns.
func TestGuardBoundsAbandonedCalls(t *testing.T) {
	const callers, calls, slack = 4, maxAbandoned + 50, 8
	baseline := runtime.NumGoroutine()
	inner := &faultEval{release: make(chan struct{})}
	p := Chain(inner, WithGuard(time.Millisecond))
	a, s, l := testPoint()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < calls; i += callers {
				if _, err := p.Evaluate(a, s, l); !errors.Is(err, ErrTimeout) {
					t.Errorf("call %d: err = %v, want ErrTimeout", i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := runtime.NumGoroutine(); n > baseline+maxAbandoned+callers+slack {
		t.Errorf("%d goroutines after %d timed-out calls, want at most %d", n, calls, baseline+maxAbandoned+callers+slack)
	}
	close(inner.release)
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck at %d after release, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Every started call has entered the backend by now.
	if n := inner.calls.Load(); n < maxAbandoned || n >= maxAbandoned+callers {
		t.Errorf("backend entered %d times, want the cap %d plus fewer than %d racing callers", n, maxAbandoned, callers)
	}
	// With the abandoned calls drained, the guard evaluates again.
	if _, err := p.Evaluate(a, s, l); err != nil {
		t.Fatalf("after release: %v", err)
	}
}
