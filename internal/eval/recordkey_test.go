package eval

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/sim"
	"spotlight/internal/timeloop"
	"spotlight/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenKey is a fixed evaluation input exercising every serialized
// field with a distinct value, so any field dropped from or reordered in
// appendRecordKey changes the golden bytes.
func goldenKey() Key {
	return Key{
		Accel: hw.Accel{PEs: 1024, Width: 32, SIMDLanes: 4, RFKB: 128, L2KB: 2048, NoCBW: 256},
		Sched: sched.Schedule{
			T2:          [workload.NumDims]int{1, 2, 3, 4, 5, 6, 7},
			T1:          [workload.NumDims]int{1, 1, 3, 1, 5, 1, 7},
			OuterOrder:  workload.AllDims,
			InnerOrder:  [workload.NumDims]workload.Dim{workload.DimY, workload.DimX, workload.DimS, workload.DimR, workload.DimC, workload.DimK, workload.DimN},
			OuterUnroll: workload.DimK,
			InnerUnroll: workload.DimC,
		},
		Layer: workload.Layer{
			Name: "golden-layer", Op: workload.OpDepthwise,
			N: 1, K: 96, C: 96, R: 3, S: 3, X: 56, Y: 57,
			StrideX: 2, StrideY: 1, Repeat: 4,
		},
	}
}

// TestRecordKeyGolden pins the canonical record-key serialization and
// its SHA-256 to a golden file. If this fails after an intentional
// layout change, bump RecordKeyVersion (orphaning old journals is the
// point — their keys no longer describe the stored values), then
// regenerate with: go test ./internal/eval -run RecordKeyGolden -update
func TestRecordKeyGolden(t *testing.T) {
	raw := appendRecordKey(nil, "maestro", "maestro/cost-v1", goldenKey())
	sum := RecordKey("maestro", "maestro/cost-v1", goldenKey())
	got := fmt.Sprintf("version: %d\nbytes: %s\nsha256: %s\n",
		RecordKeyVersion, hex.EncodeToString(raw), hex.EncodeToString(sum[:]))

	path := filepath.Join("testdata", "recordkey.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("record-key serialization changed:\n--- got ---\n%s--- want ---\n%s\nEvery persistent journal keyed under the old layout is orphaned. If intentional, bump RecordKeyVersion and rerun with -update.", got, want)
	}
}

// TestRecordKeyDistinguishes: changing any single input must change the
// key — backend, fingerprint, and every struct field feed the hash.
func TestRecordKeyDistinguishes(t *testing.T) {
	base := RecordKey("maestro", "fp", goldenKey())
	mutations := map[string]func() [32]byte{
		"backend":     func() [32]byte { return RecordKey("sim", "fp", goldenKey()) },
		"fingerprint": func() [32]byte { return RecordKey("maestro", "fp2", goldenKey()) },
		"accel.PEs": func() [32]byte {
			k := goldenKey()
			k.Accel.PEs = 512
			return RecordKey("maestro", "fp", k)
		},
		"sched.T2": func() [32]byte {
			k := goldenKey()
			k.Sched.T2[3] = 8
			return RecordKey("maestro", "fp", k)
		},
		"sched.InnerUnroll": func() [32]byte {
			k := goldenKey()
			k.Sched.InnerUnroll = workload.DimS
			return RecordKey("maestro", "fp", k)
		},
		"layer.Name": func() [32]byte {
			k := goldenKey()
			k.Layer.Name = "other"
			return RecordKey("maestro", "fp", k)
		},
		"layer.Repeat": func() [32]byte {
			k := goldenKey()
			k.Layer.Repeat = 1
			return RecordKey("maestro", "fp", k)
		},
	}
	for name, mutate := range mutations {
		if mutate() == base {
			t.Fatalf("mutating %s did not change the record key", name)
		}
	}
	// Length-prefixing keeps adjacent strings unambiguous: moving a byte
	// across the backend/fingerprint boundary must change the key.
	if RecordKey("ab", "c", goldenKey()) == RecordKey("a", "bc", goldenKey()) {
		t.Fatal("string boundary ambiguity in record-key serialization")
	}
}

// TestBackendFingerprints: every bundled backend declares a cost-model
// fingerprint, and unversioned evaluators get the explicit marker.
func TestBackendFingerprints(t *testing.T) {
	for _, tc := range []struct {
		ev   core.Evaluator
		want string
	}{
		{maestro.New(), "maestro/" + maestro.CostModelVersion},
		{sim.NewBackend(sim.Options{}), "sim-hybrid/sim-v1+maestro/" + maestro.CostModelVersion},
		{timeloop.New(), "timeloop/cost-v2"},
	} {
		if got := BackendFingerprint(tc.ev); got != tc.want {
			t.Fatalf("%s fingerprint = %q, want %q", tc.ev.Name(), got, tc.want)
		}
	}
	if got := BackendFingerprint(&fakeEval{}); got != "fake/unversioned" {
		t.Fatalf("unversioned fallback = %q", got)
	}
}
