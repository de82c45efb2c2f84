// Package resilience holds the write-path fault model the persistence
// code is tested against: FileFault, shared by the disk cache's crash
// tests and core's torn-checkpoint tests. Evaluation faults (panics,
// hangs) are contained by internal/eval's guard layer.
package resilience

import (
	"io"
	"sync"
)

// FileFault is the shared write-path fault injector for persistence
// code: it meters a byte budget and then fails every further write with
// a configured error, optionally completing a *partial* write first —
// which is exactly the on-disk state a crash (SIGKILL mid-append) or a
// filling disk (ENOSPC halfway through a record) leaves behind. The
// disk-cache crash tests and the torn-checkpoint tests both drive their
// writers through one of these, so every persistence layer is exercised
// against the same fault model.
//
// A FileFault is safe for concurrent use; the byte budget is consumed
// atomically across every writer it wraps.
type FileFault struct {
	mu        sync.Mutex
	remaining int64
	err       error
	tripped   bool
}

// NewFileFault returns a fault that lets budget bytes through and then
// fails with err. A negative budget never trips (useful as a disabled
// default); a zero budget fails the first write.
func NewFileFault(budget int64, err error) *FileFault {
	return &FileFault{remaining: budget, err: err}
}

// Tripped reports whether the fault has fired at least once.
func (f *FileFault) Tripped() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// admit consumes up to n bytes of budget and returns how many may be
// written and the error to report once the budget is exhausted.
func (f *FileFault) admit(n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.remaining < 0 {
		return n, nil
	}
	if int64(n) <= f.remaining {
		f.remaining -= int64(n)
		return n, nil
	}
	allowed := int(f.remaining)
	f.remaining = 0
	f.tripped = true
	return allowed, f.err
}

// Writer wraps w so its writes draw on the fault's byte budget. Once the
// budget is exhausted a write completes partially (the admitted prefix
// reaches w — a torn record) and returns the fault's error; nil f or a
// negative budget make this a pass-through.
func (f *FileFault) Writer(w io.Writer) io.Writer {
	if f == nil {
		return w
	}
	return &faultWriter{fault: f, w: w}
}

type faultWriter struct {
	fault *FileFault
	w     io.Writer
}

// Write implements io.Writer with the fault policy applied.
func (fw *faultWriter) Write(p []byte) (int, error) {
	allowed, ferr := fw.fault.admit(len(p))
	n := 0
	if allowed > 0 {
		var werr error
		n, werr = fw.w.Write(p[:allowed])
		if werr != nil {
			return n, werr
		}
	}
	if ferr != nil {
		return n, ferr
	}
	return n, nil
}
