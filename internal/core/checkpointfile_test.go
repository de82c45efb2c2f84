package core_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/resilience"
)

func testCheckpoint(samples int) *core.Checkpoint {
	return &core.Checkpoint{
		Version:     2,
		Tool:        "spotlight",
		Fingerprint: "test-fp",
		Samples:     samples,
		Observations: []core.Observation{
			{Accel: hw.Accel{PEs: 256, Width: 16, SIMDLanes: 2, RFKB: 64, L2KB: 1024, NoCBW: 128}, Objective: 42.5, Valid: true},
			{Accel: hw.Accel{PEs: 64, Width: 8, SIMDLanes: 1, RFKB: 16, L2KB: 256, NoCBW: 32}, Valid: false},
		},
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	cp := testCheckpoint(3)
	if err := core.WriteCheckpointFile(path, cp); err != nil {
		t.Fatalf("WriteCheckpointFile: %v", err)
	}
	got, err := core.ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("ReadCheckpointFile: %v", err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, cp)
	}
	// The atomic install leaves no temp file behind.
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left after successful write: %v", err)
	}

	// Overwrite replaces atomically.
	cp2 := testCheckpoint(7)
	if err := core.WriteCheckpointFile(path, cp2); err != nil {
		t.Fatalf("second WriteCheckpointFile: %v", err)
	}
	got, err = core.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != 7 {
		t.Fatalf("Samples = %d after overwrite, want 7", got.Samples)
	}
}

// TestTornTempPreservesCheckpoint simulates a crash mid-rewrite: a torn
// .tmp next to a valid checkpoint. The reader must keep serving the old
// checkpoint, and a later write must succeed over the debris.
func TestTornTempPreservesCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	cp := testCheckpoint(3)
	if err := core.WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}

	// Serialize the successor and tear its write with the shared fault
	// injector — the same partial-prefix shape a crash leaves.
	var full bytes.Buffer
	if err := core.WriteCheckpoint(&full, testCheckpoint(9)); err != nil {
		t.Fatal(err)
	}
	fault := resilience.NewFileFault(int64(full.Len()/2), errors.New("crash"))
	tmp, err := os.Create(path + ".tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fault.Writer(tmp).Write(full.Bytes()); err == nil {
		t.Fatal("fault writer did not tear the write")
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := core.ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("torn .tmp broke the reader: %v", err)
	}
	if got.Samples != 3 {
		t.Fatalf("Samples = %d, want the pre-crash 3", got.Samples)
	}

	// Recovery is just writing again: the rename replaces the debris path
	// atomically and the new checkpoint lands.
	if err := core.WriteCheckpointFile(path, testCheckpoint(9)); err != nil {
		t.Fatalf("write over torn temp: %v", err)
	}
	got, err = core.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != 9 {
		t.Fatalf("Samples = %d after recovery write, want 9", got.Samples)
	}
}

// TestTornCheckpointFailsCleanly: a checkpoint truncated mid-file (the
// pre-atomic-write failure mode, or filesystem loss) must produce an
// error, never a partial checkpoint.
func TestTornCheckpointFailsCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.checkpoint")
	if err := core.WriteCheckpointFile(path, testCheckpoint(3)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := core.ReadCheckpointFile(path); err == nil {
		t.Fatal("truncated checkpoint read succeeded")
	}
}

// TestWriteCheckpointFileFailurePreservesOld: when the new checkpoint
// cannot be written (unwritable directory for the temp file), the
// existing checkpoint survives untouched.
func TestWriteCheckpointFileFailurePreservesOld(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("directory permissions do not bind as root")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.checkpoint")
	if err := core.WriteCheckpointFile(path, testCheckpoint(3)); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := core.WriteCheckpointFile(path, testCheckpoint(9)); err == nil {
		t.Fatal("write into read-only directory succeeded")
	}
	got, err := core.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != 3 {
		t.Fatalf("Samples = %d, want the untouched 3", got.Samples)
	}
}

func TestReadCheckpointFileMissing(t *testing.T) {
	if _, err := core.ReadCheckpointFile(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error = %v, want os.ErrNotExist", err)
	}
}
