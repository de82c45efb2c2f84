package engine

import (
	"context"
	"errors"
	"os"
	"os/signal"
	"syscall"
)

// signalCause is the cancel cause ShutdownContext records: the signal
// that asked the process to stop. context.Cause(ctx) returns it, and
// ExitCode turns it into the process's exit status.
type signalCause struct{ Signal os.Signal }

func (s signalCause) Error() string { return "signal " + s.Signal.String() }

// ShutdownContext returns a context canceled on SIGINT or SIGTERM (and
// when the parent is canceled), with the signal recorded as its cancel
// cause. SIGTERM matters for batch schedulers and container runtimes,
// which send it — not SIGINT — before killing. Every entry point stops
// through this context: a search or experiment stops at its next
// sample, the deferred handlers flush the disk-cache journal and the
// trace sink, and the caller reports what completed.
//
// Only the first signal is caught. After it the signals' default
// action is restored, so a second Ctrl-C kills a process stuck in a
// long evaluation. The returned stop func releases the registration
// and cancels the context.
func ShutdownContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(parent)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-sigc:
			signal.Stop(sigc)
			cancel(signalCause{sig})
		case <-ctx.Done():
			signal.Stop(sigc)
		}
	}()
	return ctx, func() {
		signal.Stop(sigc)
		cancel(nil)
	}
}

// ExitCode returns the exit status of a failed run given err, the cause
// of its shutdown context (context.Cause): the conventional 128 +
// signal number (130 for SIGINT, 143 for SIGTERM) when err is or wraps
// the signal ShutdownContext caught, and 1 for anything else.
func ExitCode(err error) int {
	var s signalCause
	if errors.As(err, &s) {
		if sig, ok := s.Signal.(syscall.Signal); ok {
			return 128 + int(sig)
		}
	}
	return 1
}
