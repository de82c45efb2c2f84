package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/maestro"
	"spotlight/internal/workload"
)

// TestMain runs the command itself when SPOTLIGHT_TEST_MAIN is set, so
// a test can drive the real process (flags, signals, exit status) by
// re-executing the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("SPOTLIGHT_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStoppedSearchExitStatus stops a long search once it has
// checkpointed a hardware sample: after SIGINT or SIGTERM the process
// reports the partial result and exits 130 or 143; a -timeout stop
// reports it and exits 0. Every stop names the checkpoint to resume
// from, and that file loads.
func TestStoppedSearchExitStatus(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("needs POSIX signals")
	}
	for _, tc := range []struct {
		name string
		sig  os.Signal // nil: stop by -timeout
		want int
	}{
		{"SIGINT", os.Interrupt, 130},
		{"SIGTERM", syscall.SIGTERM, 143},
		{"timeout", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := filepath.Join(t.TempDir(), "cp.json")
			args := []string{"-models", "MobileNetV2", "-hw", "100000", "-sw", "8", "-checkpoint", cp}
			if tc.sig == nil {
				args = append(args, "-timeout", "2s")
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "SPOTLIGHT_TEST_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			exited := make(chan struct{})
			var waitErr error
			go func() { waitErr = cmd.Wait(); close(exited) }()
			defer func() {
				select {
				case <-exited:
				default:
					_ = cmd.Process.Kill() // a failed subtest leaves the child running
					<-exited
				}
			}()
			if tc.sig != nil {
				// A checkpoint on disk means a hardware sample completed,
				// long after the signal handler was installed.
				deadline := time.Now().Add(time.Minute)
				for {
					if _, err := os.Stat(cp); err == nil {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("no checkpoint within a minute\n%s", stderr.String())
					}
					time.Sleep(10 * time.Millisecond)
				}
				if err := cmd.Process.Signal(tc.sig); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-exited:
			case <-time.After(time.Minute):
				t.Fatal("search did not stop within a minute")
			}
			code := 0
			var ee *exec.ExitError
			if errors.As(waitErr, &ee) {
				code = ee.ExitCode()
			} else if waitErr != nil {
				t.Fatal(waitErr)
			}
			if code != tc.want {
				t.Fatalf("exit status %d, want %d\nstderr:\n%s", code, tc.want, stderr.String())
			}
			if !strings.Contains(stdout.String(), "partial result after") {
				t.Fatalf("no partial result reported\nstdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), "checkpoint saved; continue with -resume "+cp) {
				t.Fatalf("no resume hint on stderr\nstderr:\n%s", stderr.String())
			}
			saved, err := core.ReadCheckpointFile(cp)
			if err != nil {
				t.Fatalf("checkpoint left by the stopped run: %v", err)
			}
			if saved.Samples < 1 {
				t.Fatalf("checkpoint holds %d hardware samples, want at least 1", saved.Samples)
			}
		})
	}
}

// TestReevaluateReproducesMultiModelEDP re-costs an exported two-model
// EDP design on the backend that found it: the aggregate must equal the
// design's own objective, which sums each model's energy × delay rather
// than multiplying the design's total energy by its total delay.
func TestReevaluateReproducesMultiModelEDP(t *testing.T) {
	models := []workload.Model{workload.ResNet50(), workload.MobileNetV2()}
	cfg := core.RunConfig{
		Models: models, Objective: core.MinEDP,
		HWSamples: 3, SWSamples: 6, Seed: 1, Eval: maestro.New(),
	}
	res, err := core.Run(cfg, core.NewSpotlight())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.json")
	var js bytes.Buffer
	if err := core.WriteJSON(&js, core.Export(res.Tool, cfg.Objective, res.Best)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, js.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// reevaluateDesign prints its report; catch it in a file.
	report, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = report
	err = reevaluateDesign(path, maestro.New(), cfg.Objective, models)
	os.Stdout = stdout
	if cerr := report.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(report.Name())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("aggregate EDP = %.6g (was %.6g on Spotlight)\n", res.Best.Objective, res.Best.Objective)
	if !strings.HasSuffix(string(out), want) {
		t.Fatalf("report:\n%s\nwant it to end %q", out, want)
	}
}
