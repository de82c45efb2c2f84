package eval

import (
	"encoding/binary"
	"math"
	"path/filepath"
	"strings"
	"sync"

	"spotlight/internal/eval/diskcache"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/resilience"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// DiskOptions configures the persistent-cache middleware.
type DiskOptions struct {
	// Dir is the cache directory; the journal lives at
	// <Dir>/<backend-name>.journal, so stores for different backends
	// coexist in one directory.
	Dir string
	// Path overrides the derived journal path with an explicit file.
	Path string
	// Backend and Fingerprint identify the producer of the cached
	// values; both feed every record key, and Fingerprint also gates
	// the journal header (a mismatch wipes the store). FromSpec fills
	// them from the opened backend.
	Backend     string
	Fingerprint string
	// Tracer receives cache.persist events; nil disables.
	Tracer obs.Tracer
	// Fault injects write faults on the journal (test instrumentation).
	Fault *resilience.FileFault
}

// journalPath resolves the journal file for the options.
func (o DiskOptions) journalPath() string {
	if o.Path != "" {
		return o.Path
	}
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, o.Backend)
	return filepath.Join(o.Dir, name+".journal")
}

// Disk is the persistent-cache middleware: a content-addressed on-disk
// memo layered *under* the in-memory cache (spec order
// "backend,diskcache(path=...),cache,..."), so within-run duplicates
// are absorbed by memory and the journal sees each unique evaluation
// once per run. A disk hit returns the bit-identical cost (raw IEEE-754
// bits round-trip through the journal) or the identically-worded
// infeasibility verdict the original evaluation produced, so a warm
// search trajectory is indistinguishable from a cold one.
//
// Robustness contract: the disk is an accelerator, never a dependency.
// An unopenable store, a stale fingerprint, a held writer lock, a torn
// journal, or any append-time I/O error degrade persistence — one
// cache.persist trace event, then the layer passes straight through —
// and the search continues on the in-memory path. Undecodable entries
// (a corrupt record that survived framing, or a value from a newer
// codec) are treated as misses and repaired by recomputation.
type Disk struct {
	inner       layer
	store       *diskcache.Store // nil when persistence is disabled
	backend     string
	fingerprint string
	tr          obs.Tracer
	openErr     error // why the store is nil, for CLI reporting
}

// persistValue layout: one outcome byte, then the outcome's payload.
const (
	persistOK      = 0 // payload: costFloats float64s, little-endian IEEE bits
	persistInvalid = 1 // payload: the error string of the ErrInvalid verdict
)

// costFloats is the number of float64 fields persisted for a successful
// evaluation — all of maestro.Cost, in declaration order. The codec
// test pins this against the struct via reflection: adding a Cost field
// means extending encodeCost/decodeCost AND bumping the backend
// cost-model fingerprints (the layout is part of the model's identity).
const costFloats = 17

// encodeCost serializes a Cost's raw bits, preserving every value —
// including any non-finite — exactly.
func encodeCost(b []byte, c maestro.Cost) []byte {
	for _, v := range [...]float64{
		c.DelayCycles, c.EnergyNJ, c.AreaMM2, c.PowerMW, c.Utilization,
		c.ComputeCycles, c.DRAMCycles, c.NoCCycles,
		c.DRAMBytes, c.NoCBytes, c.L2Bytes, c.RFBytes,
		c.DRAMInputBytes, c.DRAMWeightBytes, c.DRAMOutputBytes,
		c.RFInputReuse, c.L2InputReuse,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// decodeCost is encodeCost's inverse.
func decodeCost(b []byte) maestro.Cost {
	f := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) //lint:allow nonfinite(decoding persisted bits: the journal stores exactly what the backend returned, non-finite included)
	}
	return maestro.Cost{
		DelayCycles: f(0), EnergyNJ: f(1), AreaMM2: f(2), PowerMW: f(3), Utilization: f(4),
		ComputeCycles: f(5), DRAMCycles: f(6), NoCCycles: f(7),
		DRAMBytes: f(8), NoCBytes: f(9), L2Bytes: f(10), RFBytes: f(11),
		DRAMInputBytes: f(12), DRAMWeightBytes: f(13), DRAMOutputBytes: f(14),
		RFInputReuse: f(15), L2InputReuse: f(16),
	}
}

// appendResult appends a persistable outcome's encoding to b. ok is
// false, and b is returned unchanged, for outcomes the cache contract
// excludes (transient faults are never memoized, in memory or on disk).
func appendResult(b []byte, cost maestro.Cost, err error) (_ []byte, ok bool) {
	switch Outcome(err) {
	case OutcomeOK:
		return encodeCost(append(b, persistOK), cost), true
	case OutcomeInvalid:
		return append(append(b, persistInvalid), err.Error()...), true
	}
	return b, false
}

// persistedInvalid is the decoded form of a stored infeasibility
// verdict: same error text as the original, and it unwraps to
// maestro.ErrInvalid so every classifier treats it identically.
type persistedInvalid struct{ msg string }

func (e *persistedInvalid) Error() string { return e.msg }
func (e *persistedInvalid) Unwrap() error { return maestro.ErrInvalid }

// decodeResult parses a stored value. ok=false marks a corrupt or
// unknown-codec value: the caller recomputes (and thereby repairs) it.
func decodeResult(b []byte) (maestro.Cost, error, bool) {
	if len(b) == 0 {
		return maestro.Cost{}, nil, false
	}
	switch b[0] {
	case persistOK:
		if len(b) != 1+8*costFloats {
			return maestro.Cost{}, nil, false
		}
		return decodeCost(b[1:]), nil, true
	case persistInvalid:
		return maestro.Cost{}, &persistedInvalid{msg: string(b[1:])}, true
	}
	return maestro.Cost{}, nil, false
}

// WithDisk returns the persistent-cache middleware. Opening the store
// happens here, once, when the chain is assembled; failures degrade to
// a pass-through layer rather than failing pipeline construction.
func WithDisk(opts DiskOptions) Middleware {
	return func(inner layer) layer {
		d := &Disk{
			inner:       inner,
			backend:     opts.Backend,
			fingerprint: opts.Fingerprint,
			tr:          opts.Tracer,
		}
		store, err := diskcache.Open(diskcache.Options{
			Path:        opts.journalPath(),
			Fingerprint: opts.Fingerprint,
			Fault:       opts.Fault,
			OnDegrade: func(err error) {
				if obs.Enabled(opts.Tracer) {
					opts.Tracer.Emit(obs.Event{Type: obs.CachePersist,
						Detail: "degraded: " + err.Error()})
				}
			},
		})
		if err != nil {
			d.openErr = err
			if obs.Enabled(opts.Tracer) {
				opts.Tracer.Emit(obs.Event{Type: obs.CachePersist,
					Detail: "degraded: " + err.Error()})
			}
			return d
		}
		d.store = store
		if obs.Enabled(opts.Tracer) {
			snap := store.Snapshot()
			switch {
			case snap.ReadOnly:
				opts.Tracer.Emit(obs.Event{Type: obs.CachePersist,
					Detail: "readonly", N: snap.Entries})
			case snap.Invalidated:
				opts.Tracer.Emit(obs.Event{Type: obs.CachePersist,
					Detail: "invalidated"})
			default:
				opts.Tracer.Emit(obs.Event{Type: obs.CachePersist,
					Detail: "recovered", N: snap.Recovered})
			}
		}
		return d
	}
}

// Name implements layer. The disk cache returns bit-identical
// results, so — like the in-memory cache — it is transparent in the
// name and therefore in the checkpoint fingerprint.
func (d *Disk) Name() string { return d.inner.Name() }

// Store returns the underlying journal store, or nil when persistence
// is disabled.
func (d *Disk) Store() *diskcache.Store { return d.store }

// OpenErr reports why persistence is disabled (nil when it is active or
// was never requested to this path).
func (d *Disk) OpenErr() error { return d.openErr }

// Close flushes and closes the journal. Safe on a degraded layer.
func (d *Disk) Close() error {
	if d.store == nil {
		return nil
	}
	return d.store.Close()
}

// diskScratch is the reusable per-call working set of Disk.evaluate:
// record keys, the miss subset, and the value being read back from the
// store or encoded for an append (decoding copies what it keeps, and
// the store copies what it does not write to the journal).
type diskScratch struct {
	keys []diskcache.Key
	miss missSet
	val  []byte
}

var diskScratchPool = sync.Pool{New: func() any { return new(diskScratch) }}

// evaluate implements layer: disk hits are read back from the journal
// (and verified) by the store, and the misses go to the inner layer in
// ONE call (preserving the batch fast path), each persistable result
// appended as it is published. The
// hit/append persistence events follow sp's sink: under a span they
// are counted in its tally (see obs.Span.CountTo).
func (d *Disk) evaluate(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error) {
	if d.store == nil {
		d.inner.evaluate(sp, a, ss, l, costs, errs)
		return
	}
	sc := diskScratchPool.Get().(*diskScratch)
	defer diskScratchPool.Put(sc)
	sc.keys = sc.keys[:0]
	sc.miss.reset()
	for i := range ss {
		key := diskcache.Key(RecordKey(d.backend, d.fingerprint, CanonicalKey(a, ss[i], l)))
		sc.keys = append(sc.keys, key)
		val, ok := d.store.Get(key, sc.val)
		sc.val = val
		if ok {
			if cost, verdict, ok := decodeResult(val); ok {
				sp.CountTo(d.tr, obs.TallyPersistHit)
				costs[i], errs[i] = cost, verdict
				continue
			}
			// Undecodable entry: recompute and re-Put below — the repair
			// path for corrupt-but-framed records.
		}
		sc.miss.add(i, ss[i])
	}
	sc.miss.run(d.inner, sp, a, ss, l, costs, errs)
	for _, i := range sc.miss.idx {
		val, ok := appendResult(sc.val[:0], costs[i], errs[i])
		sc.val = val
		if ok {
			d.store.Put(sc.keys[i], val)
			sp.CountTo(d.tr, obs.TallyPersistAppend)
		}
	}
}
