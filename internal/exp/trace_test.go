package exp

import (
	"bytes"
	"testing"

	"spotlight/internal/obs"
)

// TestFig6CSVIdenticalTracedUntraced is the figure-level determinism
// proof: the Fig6 CSV is byte-identical whether or not a run is traced,
// at one worker and at eight. TestEndToEndInvariants checks the same
// property end to end through the CLI; here it is pinned at the library
// level so a violation names the offending package, not the binary.
func TestFig6CSVIdenticalTracedUntraced(t *testing.T) {
	csvFor := func(tr obs.Tracer, workers int) []byte {
		cfg := tinyCfg()
		cfg.Tracer = tr
		cfg.Workers = workers
		rows, err := Fig6(cfg)
		if err != nil {
			t.Fatalf("Fig6 (workers=%d, traced=%v): %v", workers, obs.Enabled(tr), err)
		}
		var buf bytes.Buffer
		if err := WriteRows(&buf, rows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := csvFor(nil, 1)
	for _, workers := range []int{1, 8} {
		var trace bytes.Buffer
		sink := obs.NewJSONL(&trace)
		got := csvFor(sink, workers)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: traced Fig6 CSV differs from untraced baseline:\n%s\nvs\n%s",
				workers, got, ref)
		}
		if sink.Events() == 0 {
			t.Fatalf("workers=%d: traced run emitted no events", workers)
		}
	}
}
