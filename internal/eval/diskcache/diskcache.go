// Package diskcache is a crash-safe, append-only journaled key/value
// store: the persistence layer under internal/eval's disk-cache
// middleware. It stores opaque values under 32-byte content-addressed
// keys (the SHA-256 record keys eval computes over the canonical
// evaluation inputs) in a single journal file, and is built around three
// robustness rules:
//
//   - Every record is independently verifiable: length-framed and
//     checksummed (CRC32-Castagnoli), so a torn append — a crash,
//     SIGKILL, or full disk partway through a write — is detected by
//     scanning, never by trusting.
//   - Recovery is truncation, not failure: Open rebuilds the in-memory
//     index by scanning the journal and cuts the file back to the last
//     complete record. Complete records always survive; a torn or
//     corrupt tail costs only the entries it contained, which a cache
//     can simply recompute.
//   - Degradation is strictly observe-only: any I/O error after open
//     (ENOSPC, EIO, a revoked permission) flips the store into a sticky
//     degraded mode that silently drops further appends. Reads keep
//     serving the records in the file and the values kept in memory,
//     the OnDegrade hook fires exactly once, and no error ever
//     propagates into the evaluation path.
//
// The journal file is the only home of a persisted value: the index
// maps each key to its record's offset and length, and Get reads the
// record back and verifies it (length, checksum, key) on every hit, so
// a record the file no longer holds is a miss, never another record's
// bytes. Only values the file does not hold — puts in read-only or
// degraded mode, and a failed append's value — are kept in memory.
//
// One process owns the journal at a time: Open takes a non-blocking
// flock on the file, and a second opener falls back to a read-only
// snapshot of the complete records present at its open. The file starts
// with a fingerprint header naming the cost-model version that produced
// the entries; Open with a different fingerprint wipes the store, which
// is how stale results are invalidated when the model changes.
package diskcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"spotlight/internal/resilience"
)

// Journal geometry. A record on disk is
//
//	[4B payload length][4B CRC32C(payload)][payload]
//
// where payload = 32-byte key ‖ value. The file opens with a header:
//
//	[8B magic "SPOTJRN1"][4B format version][4B fingerprint length]
//	[fingerprint bytes][4B CRC32C(everything before it)]
//
// All integers are little-endian.
const (
	magic         = "SPOTJRN1"
	formatVersion = 1
	recordHdrLen  = 8 // length + checksum framing
	// maxValueLen bounds one record's value. Cache values are a few
	// hundred bytes; anything larger in a length field means the field
	// itself is corrupt, so the scanner treats it as a torn tail.
	maxValueLen = 1 << 20
)

// Key is the 32-byte content-addressed record identity.
type Key [32]byte

// castagnoli is the CRC32C table shared by every checksum in the file.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// Path is the journal file; parent directories are created.
	Path string
	// Fingerprint identifies the producer of the cached values
	// (backend name + cost-model version). A journal written under a
	// different fingerprint is wiped at open.
	Fingerprint string
	// OnDegrade, when non-nil, is called exactly once if the store
	// degrades (any post-open I/O error). It is invoked with the store's
	// mutex held; do not call back into the store.
	OnDegrade func(error)
	// Fault, when non-nil, injects write faults on the journal's append
	// path (see resilience.FileFault). Test instrumentation: the
	// production callers leave it nil.
	Fault *resilience.FileFault
}

// loc is where a record lives in the journal: the offset of its frame
// and the length of its value.
type loc struct {
	off int64
	n   int64
}

// Store is an open journal with its in-memory index. All methods are
// safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	f     *os.File
	w     io.Writer      // f behind the optional fault injector
	r     io.ReaderAt    // f, for Get's reads outside mu; nil once closed
	index map[Key]loc    // records in the journal file
	mem   map[Key][]byte // values the file does not hold (read-only, degraded, failed append)
	size  int64          // end offset of the last complete record

	path        string
	fingerprint string
	readOnly    bool
	degraded    bool
	onDegrade   func(error)

	rec []byte // the record being appended, reused by every Put

	hits, misses, puts int64
	recovered          int   // complete records loaded at open
	droppedBytes       int64 // torn/corrupt tail truncated at open
	invalidated        bool  // fingerprint mismatch wiped a prior store
}

// Snapshot is a point-in-time view of the store's counters and state.
type Snapshot struct {
	Hits, Misses, Puts int64
	Entries            int
	Recovered          int   // complete records recovered at open
	DroppedBytes       int64 // torn/corrupt bytes truncated at open
	ReadOnly           bool  // lock was held elsewhere: serving a snapshot
	Degraded           bool  // an I/O error disabled persistence
	Invalidated        bool  // a stale store (fingerprint mismatch) was wiped
}

// Open opens (creating if needed) the journal at opts.Path, indexes its
// complete records, and truncates any torn tail. It returns an error only
// when no usable store can be produced at all (the path is unwritable
// AND unreadable); every recoverable condition — torn tail, corrupt
// header, stale fingerprint, lock held by another process — resolves to
// an open store in the appropriate mode.
func Open(opts Options) (*Store, error) {
	if opts.Path == "" {
		return nil, fmt.Errorf("diskcache: empty journal path")
	}
	if err := os.MkdirAll(filepath.Dir(opts.Path), 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: creating cache directory: %w", err)
	}
	s := &Store{
		path:        opts.Path,
		fingerprint: opts.Fingerprint,
		onDegrade:   opts.OnDegrade,
		index:       map[Key]loc{},
		mem:         map[Key][]byte{},
	}

	f, err := os.OpenFile(opts.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		// Unwritable (read-only filesystem, permissions): fall back to a
		// read-only snapshot if the file at least opens for reading.
		rf, rerr := os.Open(opts.Path)
		if rerr != nil {
			return nil, fmt.Errorf("diskcache: opening journal: %w", err)
		}
		f, s.readOnly = rf, true
	}
	s.f, s.r = f, f
	s.w = opts.Fault.Writer(f)

	if !s.readOnly {
		locked, lerr := flockExclusive(f)
		if lerr != nil {
			closeDiscard(f)
			return nil, fmt.Errorf("diskcache: locking journal: %w", lerr)
		}
		if !locked { // another process is the writer: snapshot mode
			s.readOnly = true
		}
	}

	if err := s.load(); err != nil {
		closeDiscard(f)
		return nil, err
	}
	return s, nil
}

// load replays the journal: header check (writing or rewriting it as
// needed), then record scan with truncation at the first torn or
// corrupt record.
func (s *Store) load() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("diskcache: stat journal: %w", err)
	}
	hdr := headerBytes(s.fingerprint)

	fresh := info.Size() == 0
	if !fresh {
		ok, err := s.checkHeader()
		if err != nil {
			return err
		}
		if !ok {
			// Corrupt header or stale fingerprint: the entries are
			// unusable. A writer wipes and starts over; a reader serves
			// an empty snapshot.
			s.invalidated = true
			fresh = true
			if !s.readOnly {
				if err := s.f.Truncate(0); err != nil {
					return fmt.Errorf("diskcache: wiping stale journal: %w", err)
				}
			}
		}
	}
	if fresh {
		s.size = int64(len(hdr))
		if s.readOnly {
			return nil
		}
		if _, err := s.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("diskcache: seeking journal: %w", err)
		}
		if _, err := s.w.Write(hdr); err != nil {
			// Cannot even write the header: open degraded, in-memory only.
			s.degrade(err)
			return nil
		}
		return nil
	}
	return s.scan(int64(len(hdr)))
}

// headerBytes renders the journal header for a fingerprint.
func headerBytes(fingerprint string) []byte {
	b := make([]byte, 0, len(magic)+12+len(fingerprint))
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(fingerprint)))
	b = append(b, fingerprint...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// checkHeader reports whether the file starts with a valid header for
// this store's fingerprint. I/O errors are real errors; a short,
// corrupt, or mismatched header is (false, nil) — grounds for
// invalidation, not failure.
func (s *Store) checkHeader() (bool, error) {
	want := headerBytes(s.fingerprint)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(io.NewSectionReader(s.f, 0, int64(len(got))), got); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return false, nil
		}
		return false, fmt.Errorf("diskcache: reading journal header: %w", err)
	}
	for i := range want {
		if got[i] != want[i] {
			return false, nil
		}
	}
	return true, nil
}

// scan replays records from off, indexing the offset of every complete
// one and truncating the journal at the first torn or corrupt record.
// Each payload is read into one reused buffer to verify its checksum;
// none is kept.
func (s *Store) scan(off int64) error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("diskcache: stat journal: %w", err)
	}
	fileSize := info.Size()
	r := io.NewSectionReader(s.f, off, fileSize-off)

	good := off
	var frame [recordHdrLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			break // clean EOF or torn frame: either way, stop at `good`
		}
		payloadLen := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if payloadLen < 32 || payloadLen > 32+maxValueLen {
			break // corrupt length field
		}
		payload = slices.Grow(payload[:0], int(payloadLen))[:payloadLen]
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			break // bit rot or a torn record overwritten by a later open
		}
		s.index[Key(payload[:32])] = loc{off: good, n: int64(payloadLen) - 32}
		s.recovered++
		good += recordHdrLen + int64(payloadLen)
	}
	s.size = good
	s.droppedBytes = fileSize - good
	if s.droppedBytes > 0 && !s.readOnly {
		if err := s.f.Truncate(good); err != nil {
			// Cannot repair in place; serve what was recovered and stop
			// appending, otherwise new records would land after garbage.
			s.degrade(err)
			return nil
		}
	}
	if !s.readOnly {
		if _, err := s.f.Seek(good, io.SeekStart); err != nil {
			s.degrade(err)
		}
	}
	return nil
}

// Get appends the value stored under key to buf[:0] and returns it,
// growing buf if needed; on a miss it returns buf[:0]. A value in the
// journal is read back from the file and verified against its record's
// length, checksum and key; a read error, a mismatch or a closed
// journal is a miss, never an error. The read runs outside the store's
// lock, so concurrent Gets and Puts do not queue behind it. A record
// proven wrong (a mismatch, or one that ends past the end of the file)
// leaves the index, so the caller's recomputed value can be Put again;
// any other read error keeps the entry, because the record may be
// intact and a second append of its key would duplicate it.
func (s *Store) Get(key Key, buf []byte) ([]byte, bool) {
	s.mu.Lock()
	if v, ok := s.mem[key]; ok {
		s.hits++
		s.mu.Unlock()
		return append(buf[:0], v...), true
	}
	l, ok := s.index[key]
	r := s.r
	if !ok || r == nil {
		s.misses++
		s.mu.Unlock()
		return buf[:0], false
	}
	s.mu.Unlock()

	v, err := readRecord(r, key, l, buf[:0])

	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.hits++
		return v, true
	}
	// Drop only the entry that was read: a concurrent Put may have
	// indexed a new record under the key since.
	if errors.Is(err, errBadRecord) && s.index[key] == l {
		delete(s.index, key)
	}
	s.misses++
	return v[:0], false
}

// errBadRecord reports a record that the file does not hold as indexed.
var errBadRecord = errors.New("diskcache: record does not verify")

// readRecord reads the record at l into buf, verifies its length,
// checksum and key, and returns its value at the front of buf. A
// mismatch, or a record cut short by the end of the file, is
// errBadRecord; any other read error is returned as is.
func readRecord(r io.ReaderAt, key Key, l loc, buf []byte) ([]byte, error) {
	payloadLen := 32 + l.n
	rec := slices.Grow(buf, recordHdrLen+int(payloadLen))[:recordHdrLen+payloadLen]
	if _, err := r.ReadAt(rec, l.off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = errBadRecord
		}
		return rec[:0], err
	}
	if binary.LittleEndian.Uint32(rec[:4]) != uint32(payloadLen) ||
		binary.LittleEndian.Uint32(rec[4:recordHdrLen]) != crc32.Checksum(rec[recordHdrLen:], castagnoli) ||
		Key(rec[recordHdrLen:recordHdrLen+32]) != key {
		return rec[:0], errBadRecord
	}
	return rec[:copy(rec, rec[recordHdrLen+32:])], nil
}

// Put appends a record and indexes its offset; the store keeps no copy
// of value once it is in the file. In read-only or degraded mode
// nothing is written and the store keeps its own copy in memory (so
// the running process keeps its result). Append errors never
// propagate: they degrade the store — truncating any partial record so
// the on-disk journal stays a clean prefix of complete records — and
// the evaluation that produced the value continues unaffected.
func (s *Store) Put(key Key, value []byte) {
	if len(value) > maxValueLen {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// First write wins, matching the memo cache above this layer; a
	// duplicate must not reach the journal either, or replay (which
	// indexes in file order) would resurrect it on reopen.
	if _, dup := s.index[key]; dup {
		return
	}
	if _, dup := s.mem[key]; dup {
		return
	}
	if s.readOnly || s.degraded {
		s.mem[key] = append([]byte(nil), value...)
		return
	}
	payloadLen := 32 + len(value)
	rec := binary.LittleEndian.AppendUint32(s.rec[:0], uint32(payloadLen))
	rec = append(rec, 0, 0, 0, 0) // checksum patched below
	rec = append(rec, key[:]...)
	rec = append(rec, value...)
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(rec[recordHdrLen:], castagnoli))
	s.rec = rec

	if _, err := s.w.Write(rec); err != nil {
		s.mem[key] = append([]byte(nil), value...)
		// A partial append may be on disk. Cut back to the last complete
		// record so a same-process reopen is not needed to stay clean;
		// if even the truncate fails, the next Open's scan repairs it.
		if terr := s.f.Truncate(s.size); terr == nil {
			if _, serr := s.f.Seek(s.size, io.SeekStart); serr != nil {
				s.degrade(err)
				return
			}
		}
		s.degrade(err)
		return
	}
	s.index[key] = loc{off: s.size, n: int64(len(value))}
	s.size += int64(len(rec))
	s.puts++
}

// degrade flips the sticky degraded state and fires OnDegrade once.
// Callers hold s.mu.
func (s *Store) degrade(err error) {
	if s.degraded {
		return
	}
	s.degraded = true
	if s.onDegrade != nil {
		s.onDegrade(err)
	}
}

// Close syncs and closes the journal, releasing the writer lock. The
// returned error reports a failed flush — data that may not have
// reached disk — which callers surface but never fail on.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var err error
	if !s.readOnly && !s.degraded {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f, s.r = nil, nil
	return err
}

// Path returns the journal file path.
func (s *Store) Path() string { return s.path }

// Len returns the number of stored entries, in the file or in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index) + len(s.mem)
}

// Snapshot returns the current counters and mode flags.
func (s *Store) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		Hits:         s.hits,
		Misses:       s.misses,
		Puts:         s.puts,
		Entries:      len(s.index) + len(s.mem),
		Recovered:    s.recovered,
		DroppedBytes: s.droppedBytes,
		ReadOnly:     s.readOnly,
		Degraded:     s.degraded,
		Invalidated:  s.invalidated,
	}
}

// closeDiscard closes f on an abandoned open, where nothing was written
// and the close error carries no information.
func closeDiscard(f *os.File) {
	_ = f.Close() //lint:allow closecheck(abandoned open: nothing was written, the close error carries no data)
}
