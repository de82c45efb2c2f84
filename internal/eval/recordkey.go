package eval

import (
	"crypto/sha256"
	"encoding/binary"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// RecordKeyVersion is the version byte leading the canonical record-key
// serialization. Bump it on ANY change to recordKeyBytes' layout; the
// golden-file test (TestRecordKeyGolden) pins the bytes so an
// accidental layout change — a Go version, a struct reordering, a new
// field — fails loudly instead of silently orphaning every persistent
// store.
const RecordKeyVersion = 1

// recordKeyPrefix domain-separates the hash from any other SHA-256 use.
const recordKeyPrefix = "spotlight/evalkey"

// Key is the canonical identity of one evaluation, the input RecordKey
// hashes. The three inputs are plain value types (ints, int arrays, and
// the layer name), so Go's struct equality is exact — two keys are equal
// iff the backend would see identical inputs. The only canonicalization
// applied is to Layer.Repeat, which is zeroed: Repeat weights a layer's
// cost in model-level aggregates but never reaches the backend's
// per-evaluation math, so shapes that differ only in repeat count share
// one record. The memo cache keys the same identity, split into the
// batch's context and a packed schedule (see Cache).
type Key struct {
	Accel hw.Accel
	Sched sched.Schedule
	Layer workload.Layer
}

// CanonicalKey builds the key for one evaluation, applying the
// canonicalization described on Key.
func CanonicalKey(a hw.Accel, s sched.Schedule, l workload.Layer) Key {
	l.Repeat = 0
	return Key{Accel: a, Sched: s, Layer: l}
}

// RecordKey is the canonical content address of one evaluation in the
// persistent disk cache: the SHA-256 of a fixed, explicitly-serialized
// encoding of (backend name, backend cost-model fingerprint, canonical
// evaluation key). It IS the stored identity, so it hashes an
// unambiguous byte layout (every variable-length field is
// length-prefixed) and must be stable across processes, architectures,
// and releases. Pass a CanonicalKey-produced key so Layer.Repeat is
// canonicalized exactly as the in-memory cache does.
func RecordKey(backend, fingerprint string, k Key) [32]byte {
	var buf [512]byte // the serialization of any realistic key fits on the stack
	return sha256.Sum256(appendRecordKey(buf[:0], backend, fingerprint, k))
}

// appendRecordKey appends the canonical serialization RecordKey hashes
// to b. Layout
// (all integers little-endian uint64 unless noted):
//
//	"spotlight/evalkey" ‖ version byte ‖
//	len(backend) ‖ backend ‖ len(fingerprint) ‖ fingerprint ‖
//	accel{PEs,Width,SIMDLanes,RFKB,L2KB,NoCBW} ‖
//	sched{T2[·],T1[·],OuterOrder[·],InnerOrder[·],OuterUnroll,InnerUnroll} ‖
//	len(layer.Name) ‖ layer.Name ‖
//	layer{Op,N,K,C,R,S,X,Y,StrideX,StrideY,Repeat}
func appendRecordKey(b []byte, backend, fingerprint string, k Key) []byte {
	b = append(b, recordKeyPrefix...)
	b = append(b, RecordKeyVersion)
	b = appendString(b, backend)
	b = appendString(b, fingerprint)
	for _, v := range [...]int{k.Accel.PEs, k.Accel.Width, k.Accel.SIMDLanes,
		k.Accel.RFKB, k.Accel.L2KB, k.Accel.NoCBW} {
		b = appendInt(b, v)
	}
	for i := 0; i < workload.NumDims; i++ {
		b = appendInt(b, k.Sched.T2[i])
	}
	for i := 0; i < workload.NumDims; i++ {
		b = appendInt(b, k.Sched.T1[i])
	}
	for i := 0; i < workload.NumDims; i++ {
		b = appendInt(b, int(k.Sched.OuterOrder[i]))
	}
	for i := 0; i < workload.NumDims; i++ {
		b = appendInt(b, int(k.Sched.InnerOrder[i]))
	}
	b = appendInt(b, int(k.Sched.OuterUnroll))
	b = appendInt(b, int(k.Sched.InnerUnroll))
	b = appendString(b, k.Layer.Name)
	for _, v := range [...]int{int(k.Layer.Op), k.Layer.N, k.Layer.K, k.Layer.C,
		k.Layer.R, k.Layer.S, k.Layer.X, k.Layer.Y,
		k.Layer.StrideX, k.Layer.StrideY, k.Layer.Repeat} {
		b = appendInt(b, v)
	}
	return b
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// appendInt appends one int as a little-endian uint64 (two's
// complement, so negative values — which never occur in valid design
// points — still serialize deterministically).
func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}

// Versioned is implemented by backends that declare a cost-model
// fingerprint for persistent caching: a string that changes whenever
// the model's outputs could change (math, calibration constants, Cost
// layout).
type Versioned interface {
	ModelFingerprint() string
}

// BackendFingerprint returns the backend's cost-model fingerprint for
// persistent cache keys. Backends that do not declare one get their
// name with an explicit "/unversioned" marker: such stores are safe
// (the name still separates backends) but never invalidate on model
// changes, so bundled backends all implement Versioned.
func BackendFingerprint(b core.Evaluator) string {
	if v, ok := b.(Versioned); ok {
		return v.ModelFingerprint()
	}
	return b.Name() + "/unversioned"
}
