package diskcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"spotlight/internal/resilience"
)

func testKey(i int) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[31] = 0xA5
	return k
}

func testValue(i int) []byte {
	return []byte(fmt.Sprintf("value-%d-%s", i, "payload"))
}

func openT(t *testing.T, path, fp string) *Store {
	t.Helper()
	s, err := Open(Options{Path: path, Fingerprint: fp})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s
}

func TestPutGetReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache", "test.journal")
	s := openT(t, path, "fp-v1")
	for i := 0; i < 20; i++ {
		s.Put(testKey(i), testValue(i))
	}
	if got, ok := s.Get(testKey(7), nil); !ok || !bytes.Equal(got, testValue(7)) {
		t.Fatalf("Get(7) = %q, %v", got, ok)
	}
	if _, ok := s.Get(testKey(99), nil); ok {
		t.Fatal("Get(99) hit on a never-stored key")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openT(t, path, "fp-v1")
	defer r.Close()
	if r.Len() != 20 {
		t.Fatalf("reopened Len = %d, want 20", r.Len())
	}
	for i := 0; i < 20; i++ {
		if got, ok := r.Get(testKey(i), nil); !ok || !bytes.Equal(got, testValue(i)) {
			t.Fatalf("reopened Get(%d) = %q, %v", i, got, ok)
		}
	}
	snap := r.Snapshot()
	if snap.Recovered != 20 || snap.DroppedBytes != 0 || snap.ReadOnly || snap.Degraded || snap.Invalidated {
		t.Fatalf("reopened snapshot = %+v", snap)
	}
}

// TestCrashRecoveryAtEveryOffset is the crash-injection property test:
// whatever byte offset a crash truncates the journal at, reopening
// recovers exactly the records that were completely written before that
// offset, truncates the torn tail, and accepts new appends.
func TestCrashRecoveryAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.journal")
	s := openT(t, ref, "fp-v1")
	const n = 12
	// recordEnds[i] = journal size after i complete records.
	var recordEnds []int64
	recordEnds = append(recordEnds, journalEnd(s))
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testValue(i))
		recordEnds = append(recordEnds, journalEnd(s))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	whole, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(whole)) != recordEnds[n] {
		t.Fatalf("journal size %d, want %d", len(whole), recordEnds[n])
	}

	completeBefore := func(off int64) int {
		k := 0
		for k < n && recordEnds[k+1] <= off {
			k++
		}
		return k
	}

	rng := rand.New(rand.NewSource(1))
	offsets := []int64{0, 1, recordEnds[0] - 1, recordEnds[0], recordEnds[0] + 1,
		recordEnds[n] - 1, recordEnds[n]}
	for i := 0; i < 60; i++ {
		offsets = append(offsets, rng.Int63n(int64(len(whole))+1))
	}
	for _, off := range offsets {
		path := filepath.Join(dir, fmt.Sprintf("crash-%d.journal", off))
		if err := os.WriteFile(path, whole[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		r := openT(t, path, "fp-v1")
		want := completeBefore(off)
		if r.Len() != want {
			t.Fatalf("off=%d: recovered %d records, want %d", off, r.Len(), want)
		}
		for i := 0; i < want; i++ {
			if got, ok := r.Get(testKey(i), nil); !ok || !bytes.Equal(got, testValue(i)) {
				t.Fatalf("off=%d: Get(%d) = %q, %v", off, i, got, ok)
			}
		}
		// The store must keep working after recovery: append and reopen.
		r.Put(testKey(100), testValue(100))
		if err := r.Close(); err != nil {
			t.Fatalf("off=%d: Close: %v", off, err)
		}
		rr := openT(t, path, "fp-v1")
		if got, ok := rr.Get(testKey(100), nil); !ok || !bytes.Equal(got, testValue(100)) {
			t.Fatalf("off=%d: post-recovery append lost: %q, %v", off, got, ok)
		}
		if rr.Len() != want+1 {
			t.Fatalf("off=%d: second reopen Len = %d, want %d", off, rr.Len(), want+1)
		}
		if err := rr.Close(); err != nil {
			t.Fatalf("off=%d: second Close: %v", off, err)
		}
	}
}

// journalEnd exposes the journal's logical end offset for the crash
// offset table.
func journalEnd(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// TestTornWriteDegradesAndRecovers drives the append path into a torn
// write with the shared fault injector: the store degrades (once),
// in-memory service continues, and a clean reopen recovers exactly the
// fully-written records.
func TestTornWriteDegradesAndRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	// Budget: header plus two records plus a few bytes — the third append
	// tears partway through.
	hdr := int64(len(headerBytes("fp-v1")))
	rec := int64(recordHdrLen + 32 + len(testValue(0)))
	var degradations int
	var degradeErr error
	fault := resilience.NewFileFault(hdr+2*rec+5, errors.New("injected ENOSPC"))
	s, err := Open(Options{
		Path:        path,
		Fingerprint: "fp-v1",
		Fault:       fault,
		OnDegrade:   func(err error) { degradations++; degradeErr = err },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 6; i++ {
		s.Put(testKey(i), testValue(i))
	}
	if !fault.Tripped() {
		t.Fatal("fault never tripped")
	}
	if degradations != 1 {
		t.Fatalf("OnDegrade fired %d times, want exactly 1", degradations)
	}
	if degradeErr == nil || degradeErr.Error() != "injected ENOSPC" {
		t.Fatalf("OnDegrade error = %v", degradeErr)
	}
	snap := s.Snapshot()
	if !snap.Degraded {
		t.Fatalf("snapshot = %+v, want Degraded", snap)
	}
	// In-memory service continues for every key, persisted or not.
	for i := 0; i < 6; i++ {
		if got, ok := s.Get(testKey(i), nil); !ok || !bytes.Equal(got, testValue(i)) {
			t.Fatalf("degraded Get(%d) = %q, %v", i, got, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openT(t, path, "fp-v1")
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("reopen after torn write: Len = %d, want the 2 complete records", r.Len())
	}
	if rs := r.Snapshot(); rs.Degraded {
		t.Fatalf("fresh open inherited degradation: %+v", rs)
	}
}

// TestMidFileCorruption flips one byte inside an interior record: the
// scan must stop there, serving the intact prefix and truncating the
// rest (recompute-and-repair then refills it).
func TestMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	s := openT(t, path, "fp-v1")
	for i := 0; i < 10; i++ {
		s.Put(testKey(i), testValue(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := int64(len(headerBytes("fp-v1")))
	rec := int64(recordHdrLen + 32 + len(testValue(0)))
	// Corrupt a payload byte of record 4 (checksum now fails there).
	data[hdr+4*rec+recordHdrLen+40] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, path, "fp-v1")
	if r.Len() != 4 {
		t.Fatalf("Len = %d after mid-file corruption, want the 4-record prefix", r.Len())
	}
	snap := r.Snapshot()
	if snap.DroppedBytes != 6*rec {
		t.Fatalf("DroppedBytes = %d, want %d", snap.DroppedBytes, 6*rec)
	}
	// Repair: the dropped keys recompute and append cleanly.
	for i := 4; i < 10; i++ {
		r.Put(testKey(i), testValue(i))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rr := openT(t, path, "fp-v1")
	defer rr.Close()
	if rr.Len() != 10 {
		t.Fatalf("repaired Len = %d, want 10", rr.Len())
	}
}

// TestFingerprintInvalidation: a journal written under one cost-model
// fingerprint is wiped when opened under another — stale results must
// never be served.
func TestFingerprintInvalidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	s := openT(t, path, "model-v1")
	s.Put(testKey(1), testValue(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	v2 := openT(t, path, "model-v2")
	if v2.Len() != 0 {
		t.Fatalf("v2 open served %d stale entries", v2.Len())
	}
	if snap := v2.Snapshot(); !snap.Invalidated {
		t.Fatalf("snapshot = %+v, want Invalidated", snap)
	}
	v2.Put(testKey(2), testValue(2))
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}

	again := openT(t, path, "model-v2")
	defer again.Close()
	if again.Len() != 1 {
		t.Fatalf("Len = %d after rewrite, want 1", again.Len())
	}
	if _, ok := again.Get(testKey(1), nil); ok {
		t.Fatal("stale v1 entry survived invalidation")
	}
	if got, ok := again.Get(testKey(2), nil); !ok || !bytes.Equal(got, testValue(2)) {
		t.Fatalf("v2 entry lost: %q, %v", got, ok)
	}
}

// TestCorruptHeaderInvalidates: garbage at the front of the file is
// indistinguishable from a stale store — wiped, not fatal.
func TestCorruptHeaderInvalidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, path, "fp-v1")
	if snap := s.Snapshot(); !snap.Invalidated || snap.Entries != 0 {
		t.Fatalf("snapshot = %+v, want empty Invalidated store", snap)
	}
	s.Put(testKey(1), testValue(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, path, "fp-v1")
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("rewritten journal Len = %d, want 1", r.Len())
	}
}

// TestSecondOpenerIsReadOnly: the flock makes one process (here: one
// handle) the writer; a concurrent opener serves a read-only snapshot
// and its puts are not persisted.
func TestSecondOpenerIsReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	w := openT(t, path, "fp-v1")
	defer w.Close()
	w.Put(testKey(1), testValue(1))

	r := openT(t, path, "fp-v1")
	snap := r.Snapshot()
	if !snap.ReadOnly {
		t.Fatalf("second opener snapshot = %+v, want ReadOnly", snap)
	}
	if got, ok := r.Get(testKey(1), nil); !ok || !bytes.Equal(got, testValue(1)) {
		t.Fatalf("read-only Get(1) = %q, %v", got, ok)
	}
	r.Put(testKey(2), testValue(2)) // indexed in memory, never written
	if got, ok := r.Get(testKey(2), nil); !ok || !bytes.Equal(got, testValue(2)) {
		t.Fatalf("read-only in-memory Put lost: %q, %v", got, ok)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("read-only Close: %v", err)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := openT(t, path, "fp-v1")
	defer fresh.Close()
	if _, ok := fresh.Get(testKey(2), nil); ok {
		t.Fatal("read-only opener's Put reached the journal")
	}
	if snap := fresh.Snapshot(); snap.ReadOnly {
		t.Fatal("lock not released by the writer's Close")
	}
}

// TestOversizedValueSkipped: a value over the frame bound is neither
// persisted nor indexed — the length field doubles as the corruption
// heuristic, so such records must never be written.
func TestOversizedValueSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	s := openT(t, path, "fp-v1")
	defer s.Close()
	s.Put(testKey(1), make([]byte, maxValueLen+1))
	if _, ok := s.Get(testKey(1), nil); ok {
		t.Fatal("oversized value was indexed")
	}
	if snap := s.Snapshot(); snap.Degraded {
		t.Fatal("oversized value degraded the store")
	}
}

// TestFirstWriteWins: duplicate puts keep the original value — matching
// the memo-cache semantics the disk layer sits under.
func TestFirstWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	s := openT(t, path, "fp-v1")
	s.Put(testKey(1), []byte("first"))
	s.Put(testKey(1), []byte("second"))
	if got, _ := s.Get(testKey(1), nil); !bytes.Equal(got, []byte("first")) {
		t.Fatalf("duplicate Put replaced the value: %q", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, path, "fp-v1")
	defer r.Close()
	if got, _ := r.Get(testKey(1), nil); !bytes.Equal(got, []byte("first")) {
		t.Fatalf("reopened duplicate value: %q", got)
	}
}

// TestConcurrentPutGet exercises the store under the race detector the
// way the layer-search pool drives it: many goroutines reading and
// writing overlapping keys.
func TestConcurrentPutGet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	s := openT(t, path, "fp-v1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g*13 + i) % 40
				s.Put(testKey(k), testValue(k))
				if got, ok := s.Get(testKey(k), nil); !ok || !bytes.Equal(got, testValue(k)) {
					t.Errorf("concurrent Get(%d) = %q, %v", k, got, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, path, "fp-v1")
	defer r.Close()
	if r.Len() != 40 {
		t.Fatalf("Len = %d after concurrent writes, want 40", r.Len())
	}
}

// TestOpenUnreachablePath: a journal path that cannot exist (its parent
// is a file) is a real open error — the middleware turns it into
// degraded pass-through.
func TestOpenUnreachablePath(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: filepath.Join(blocker, "sub", "x.journal"), Fingerprint: "fp"}); err == nil {
		t.Fatal("Open under a file succeeded")
	}
	if _, err := Open(Options{Fingerprint: "fp"}); err == nil {
		t.Fatal("Open with empty path succeeded")
	}
}

// memValues reports how many values the store holds in memory rather
// than in the journal file.
func memValues(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// TestFileHoldsPersistedValues: a healthy store keeps no copy of a
// value it appended, and a warm open keeps none of the records it
// scanned; every Get is read back from the file.
func TestFileHoldsPersistedValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	s := openT(t, path, "fp-v1")
	for i := 0; i < 20; i++ {
		s.Put(testKey(i), testValue(i))
	}
	if n := memValues(s); n != 0 {
		t.Fatalf("healthy store holds %d values in memory, want 0", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, path, "fp-v1")
	defer r.Close()
	if n := memValues(r); n != 0 {
		t.Fatalf("warm open holds %d values in memory, want 0", n)
	}
	buf := make([]byte, 0, 4)
	for i := 0; i < 20; i++ {
		got, ok := r.Get(testKey(i), buf)
		if !ok || !bytes.Equal(got, testValue(i)) {
			t.Fatalf("warm Get(%d) = %q, %v", i, got, ok)
		}
		buf = got
	}
}

// TestReadOnlySnapshotAfterWriterRewrite: a read-only opener indexes
// the offsets present at its open. When the writer's file is then wiped
// and rewritten under another fingerprint, those offsets point at other
// records (or into the middle of them): every Get must miss, never
// return another record's bytes, and a value the reader recomputes and
// puts is then served from memory.
func TestReadOnlySnapshotAfterWriterRewrite(t *testing.T) {
	fixed := func(i int) []byte { return []byte(fmt.Sprintf("v%04d", i)) }
	for _, tc := range []struct {
		name  string
		fp    string             // the rewriting writer's fingerprint
		value func(i int) []byte // the rewritten records' values
	}{
		// Same header and record lengths: the old offsets land exactly
		// on new, intact records with other keys.
		{"aligned", "fp-v2", fixed},
		// Other lengths: the old offsets land mid-record.
		{"misaligned", "fp-version-2", func(i int) []byte { return []byte(fmt.Sprintf("other-%d", i*7)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "test.journal")
			w := openT(t, path, "fp-v1")
			for i := 0; i < 10; i++ {
				w.Put(testKey(i), fixed(i))
			}
			r := openT(t, path, "fp-v1")
			defer r.Close()
			if !r.Snapshot().ReadOnly {
				t.Fatal("second opener is not read-only")
			}
			if got, ok := r.Get(testKey(3), nil); !ok || !bytes.Equal(got, fixed(3)) {
				t.Fatalf("snapshot Get(3) before the rewrite = %q, %v", got, ok)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			w2 := openT(t, path, tc.fp)
			if !w2.Snapshot().Invalidated {
				t.Fatal("rewriting writer did not wipe the journal")
			}
			for i := 0; i < 10; i++ {
				w2.Put(testKey(100+i), tc.value(100+i))
			}
			defer w2.Close()

			before := r.Snapshot().Hits
			for i := 0; i < 10; i++ {
				if got, ok := r.Get(testKey(i), nil); ok {
					t.Fatalf("Get(%d) after the rewrite = %q, want a miss", i, got)
				}
			}
			if hits := r.Snapshot().Hits; hits != before {
				t.Fatalf("hits went %d -> %d across misses", before, hits)
			}
			r.Put(testKey(3), fixed(3))
			if got, ok := r.Get(testKey(3), nil); !ok || !bytes.Equal(got, fixed(3)) {
				t.Fatalf("recomputed Get(3) = %q, %v", got, ok)
			}
		})
	}
}

// TestCorruptRecordAfterOpenMisses: a record damaged in the file after
// it was indexed fails Get's checksum and is a miss; the recomputed
// value can be put again.
func TestCorruptRecordAfterOpenMisses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	s := openT(t, path, "fp-v1")
	defer s.Close()
	for i := 0; i < 3; i++ {
		s.Put(testKey(i), testValue(i))
	}
	hdr := int64(len(headerBytes("fp-v1")))
	rec := int64(recordHdrLen + 32 + len(testValue(0)))
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, hdr+rec+recordHdrLen+40); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(testKey(1), nil); ok {
		t.Fatalf("corrupt record served: %q", got)
	}
	if got, ok := s.Get(testKey(2), nil); !ok || !bytes.Equal(got, testValue(2)) {
		t.Fatalf("intact neighbour Get(2) = %q, %v", got, ok)
	}
	s.Put(testKey(1), testValue(1))
	if got, ok := s.Get(testKey(1), nil); !ok || !bytes.Equal(got, testValue(1)) {
		t.Fatalf("re-put Get(1) = %q, %v", got, ok)
	}
}

// TestGetAfterCloseMisses: a closed store answers Get with a miss, not
// a panic on its released file.
func TestGetAfterCloseMisses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	s := openT(t, path, "fp-v1")
	s.Put(testKey(1), testValue(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(testKey(1), nil); ok {
		t.Fatalf("Get after Close = %q, want a miss", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// failingReaderAt fails every read with err while fail is set, and
// otherwise reads from r: a transient read fault (EIO) on the journal.
type failingReaderAt struct {
	r    io.ReaderAt
	err  error
	fail atomic.Bool
}

func (f *failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if f.fail.Load() {
		return 0, f.err
	}
	return f.r.ReadAt(p, off)
}

// TestReadErrorKeepsRecord: a read error that proves nothing about the
// record (a transient EIO) is a miss, but the record stays indexed, so
// the caller's recomputed value is not appended a second time and the
// record is served again once reads recover.
func TestReadErrorKeepsRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	s := openT(t, path, "fp-v1")
	defer s.Close()
	s.Put(testKey(1), testValue(1))
	fr := &failingReaderAt{r: s.f, err: errors.New("injected EIO")}
	fr.fail.Store(true)
	s.mu.Lock()
	s.r = fr
	s.mu.Unlock()
	end := journalEnd(s)

	if got, ok := s.Get(testKey(1), nil); ok {
		t.Fatalf("Get under a read fault = %q, want a miss", got)
	}
	s.Put(testKey(1), testValue(1))
	if got := journalEnd(s); got != end {
		t.Fatalf("journal grew from %d to %d: a record that failed to read was appended again", end, got)
	}
	snap := s.Snapshot()
	if snap.Entries != 1 || snap.Puts != 1 || snap.Misses != 1 || snap.Degraded {
		t.Fatalf("after a read fault: %+v, want 1 entry, 1 put, 1 miss, not degraded", snap)
	}
	fr.fail.Store(false)
	if got, ok := s.Get(testKey(1), nil); !ok || !bytes.Equal(got, testValue(1)) {
		t.Fatalf("Get after the fault cleared = %q, %v", got, ok)
	}
}

// TestConcurrentPutGetAcrossClose: Gets racing a Close read outside the
// store's lock; each one either serves the stored value or misses.
func TestConcurrentPutGetAcrossClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.journal")
	s := openT(t, path, "fp-v1")
	for i := 0; i < 16; i++ {
		s.Put(testKey(i), testValue(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				k := (g*5 + i) % 16
				v, ok := s.Get(testKey(k), buf)
				if ok && !bytes.Equal(v, testValue(k)) {
					t.Errorf("Get(%d) across Close = %q", k, v)
					return
				}
				buf = v
			}
		}(g)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	wg.Wait()
}

// TestValuesOutsideTheFileStayServed: in degraded and read-only mode,
// and for the append that failed, Put keeps the value in memory and Get
// serves it; values already in the file keep being read from it.
func TestValuesOutsideTheFileStayServed(t *testing.T) {
	t.Run("degraded", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "test.journal")
		hdr := int64(len(headerBytes("fp-v1")))
		rec := int64(recordHdrLen + 32 + len(testValue(0)))
		s, err := Open(Options{Path: path, Fingerprint: "fp-v1",
			Fault: resilience.NewFileFault(hdr+2*rec, errors.New("injected EIO"))})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 6; i++ {
			s.Put(testKey(i), testValue(i))
		}
		if !s.Snapshot().Degraded {
			t.Fatal("store did not degrade")
		}
		// Records 0 and 1 are in the file; 2 failed to append; 3-5 came
		// after degradation.
		if n := memValues(s); n != 4 {
			t.Fatalf("%d values in memory, want the 4 not in the file", n)
		}
		for i := 0; i < 6; i++ {
			if got, ok := s.Get(testKey(i), nil); !ok || !bytes.Equal(got, testValue(i)) {
				t.Fatalf("degraded Get(%d) = %q, %v", i, got, ok)
			}
		}
		if s.Len() != 6 {
			t.Fatalf("Len = %d, want 6", s.Len())
		}
	})
	t.Run("read-only", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "test.journal")
		w := openT(t, path, "fp-v1")
		defer w.Close()
		w.Put(testKey(0), testValue(0))
		r := openT(t, path, "fp-v1")
		defer r.Close()
		r.Put(testKey(1), testValue(1))
		r.Put(testKey(0), []byte("not the first write"))
		if n := memValues(r); n != 1 {
			t.Fatalf("%d values in memory, want only the read-only put", n)
		}
		for i := 0; i < 2; i++ {
			if got, ok := r.Get(testKey(i), nil); !ok || !bytes.Equal(got, testValue(i)) {
				t.Fatalf("read-only Get(%d) = %q, %v", i, got, ok)
			}
		}
	})
}

// TestPutNewKeyAllocations pins the append path: Put keeps no copy of a
// value it writes and reuses its record buffer, so the only allocations
// left are the index map's growth, well under one per call.
func TestPutNewKeyAllocations(t *testing.T) {
	s := openT(t, filepath.Join(t.TempDir(), "test.journal"), "fp-v1")
	defer s.Close()
	value := testValue(0)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		s.Put(testKey(i), value)
		i++
	})
	if allocs >= 1 {
		t.Fatalf("Put of a new key: %.2f allocs per call, want < 1", allocs)
	}
	if s.Snapshot().Degraded {
		t.Fatal("store degraded during the allocation run")
	}
}

// BenchmarkStore measures the journal's three hot operations on a
// 4,096-record store with cost-sized (137-byte) values: an append of a
// new key, a Get that reads and verifies a record (alone, and from
// GOMAXPROCS goroutines at once), and a Get miss.
func BenchmarkStore(b *testing.B) {
	const records = 4096
	value := bytes.Repeat([]byte{0x5A}, 137)
	bigKey := func(i int) Key {
		var k Key
		binary.LittleEndian.PutUint64(k[:], uint64(i))
		k[31] = 0xA5
		return k
	}
	open := func(b *testing.B) *Store {
		s, err := Open(Options{Path: filepath.Join(b.TempDir(), "bench.journal"), Fingerprint: "fp-v1"})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			if err := s.Close(); err != nil {
				b.Error(err)
			}
		})
		return s
	}
	b.Run("Put", func(b *testing.B) {
		s := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Put(bigKey(i), value)
		}
	})
	b.Run("GetHit", func(b *testing.B) {
		s := open(b)
		for i := 0; i < records; i++ {
			s.Put(bigKey(i), value)
		}
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, ok := s.Get(bigKey(i%records), buf)
			if !ok {
				b.Fatal("miss on a stored key")
			}
			buf = v
		}
	})
	b.Run("GetHitParallel", func(b *testing.B) {
		s := open(b)
		for i := 0; i < records; i++ {
			s.Put(bigKey(i), value)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var buf []byte
			for i := 0; pb.Next(); i++ {
				v, ok := s.Get(bigKey(i%records), buf)
				if !ok {
					b.Error("miss on a stored key")
					return
				}
				buf = v
			}
		})
	})
	b.Run("GetMiss", func(b *testing.B) {
		s := open(b)
		for i := 0; i < records; i++ {
			s.Put(bigKey(i), value)
		}
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Get(bigKey(records+i), buf); ok {
				b.Fatal("hit on a never-stored key")
			}
		}
	})
}
