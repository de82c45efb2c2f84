package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"syscall"
	"testing"
	"time"
)

func TestExitCode(t *testing.T) {
	if got := ExitCode(signalCause{os.Interrupt}); got != 130 {
		t.Fatalf("ExitCode(SIGINT) = %d, want 130", got)
	}
	// SIGTERM has its own status; batch schedulers tell the two apart.
	// The cause may arrive wrapped in the error a run returned.
	if got := ExitCode(fmt.Errorf("fig6: %w", signalCause{syscall.SIGTERM})); got != 143 {
		t.Fatalf("ExitCode(wrapped SIGTERM) = %d, want 143", got)
	}
	if got := ExitCode(signalCause{fakeSignal{}}); got != 1 {
		t.Fatalf("ExitCode(unknown signal) = %d, want 1", got)
	}
	if got := ExitCode(errors.New("disk full")); got != 1 {
		t.Fatalf("ExitCode(plain error) = %d, want 1", got)
	}
}

type fakeSignal struct{}

func (fakeSignal) String() string { return "fake" }
func (fakeSignal) Signal()        {}

// TestShutdownContextRecordsSignalCause delivers a real SIGTERM to the
// test process: the context must be done with the signal as its cause,
// which ExitCode maps to 143. Only one signal is sent. The handler
// restores the default action after the first, so a second would kill
// the test binary.
func TestShutdownContextRecordsSignalCause(t *testing.T) {
	ctx, stop := ShutdownContext(context.Background())
	defer stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the shutdown context")
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("ctx.Err() = %v, want context.Canceled", ctx.Err())
	}
	cause := context.Cause(ctx)
	if got := ExitCode(cause); got != 143 {
		t.Fatalf("ExitCode(%v) = %d, want 143 for SIGTERM", cause, got)
	}
}

// TestShutdownContextStopCancelsWithoutSignal: the stop func cancels
// the context with no signal cause, so a normal exit maps to no
// signal status.
func TestShutdownContextStopCancelsWithoutSignal(t *testing.T) {
	ctx, stop := ShutdownContext(context.Background())
	stop()
	<-ctx.Done()
	if cause := context.Cause(ctx); !errors.Is(cause, context.Canceled) {
		t.Fatalf("cause after stop = %v, want context.Canceled", cause)
	}
	if got := ExitCode(context.Cause(ctx)); got != 1 {
		t.Fatalf("ExitCode after stop = %d, want 1", got)
	}
}
