package spotlight

// The end-to-end determinism contract, through the real binaries: the
// Figure 6 CSV is byte-identical traced or untraced, batched or not, at
// 1 or 8 workers, with a cold, warm or torn persistent cache, and from
// cmd/experiments or from spotlightd. The commands run as child
// processes, so flag parsing, signal handling and os.Exit are the ones
// users get, and under -race the children stay uninstrumented.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// e2eFixture is the reduced fig6 run every row shares.
var e2eFixture = []string{"-fig", "6", "-models", "MobileNetV2", "-hw", "4", "-sw", "6", "-trials", "1"}

// e2eRun is one cmd/experiments invocation. The first run of each eval
// spec is untraced and becomes that spec's reference CSV; every later
// run must reproduce it byte for byte.
type e2eRun struct {
	name    string
	eval    string
	flags   []string
	trace   bool   // write a trace, which must pass tracestat -check with every span closed
	summary string // text the tracestat summary must contain
	before  func(t *testing.T)
}

func TestEndToEndInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the commands and runs fig6 through them; skipped under -short")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/experiments", "./cmd/spotlightd", "./cmd/tracestat", "./cmd/promcheck")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tool := func(name string) string { return filepath.Join(bin, name) }

	// maestro, the default backend: the whole {untraced, traced} ×
	// {batch, nobatch} × {1, 8 workers} cube.
	var runs []e2eRun
	for _, trace := range []bool{false, true} {
		for _, nobatch := range []bool{false, true} {
			for _, workers := range []string{"1", "8"} {
				r := e2eRun{eval: "maestro", flags: []string{"-workers", workers}, trace: trace}
				r.name = "maestro/untraced"
				if trace {
					r.name = "maestro/traced"
				}
				if nobatch {
					r.flags = append(r.flags, "-nobatch")
					r.name += "/nobatch"
				}
				r.name += "/workers=" + workers
				runs = append(runs, r)
			}
		}
	}
	// The simulator, through the memo cache. The cold persistent-cache
	// run is the untraced reference; a traced run without the disk
	// cache, a warm traced run and a run over a torn journal follow.
	const sim = "sim,cache,stats"
	cacheDir := t.TempDir()
	runs = append(runs,
		e2eRun{name: "sim/untraced/cold-cache", eval: sim, flags: []string{"-cache-dir", cacheDir}},
		e2eRun{name: "sim/traced", eval: sim, trace: true},
		e2eRun{name: "sim/traced/warm-cache", eval: sim, flags: []string{"-cache-dir", cacheDir},
			trace: true, summary: "persistent cache:"},
		e2eRun{name: "sim/untraced/torn-journal", eval: sim, flags: []string{"-cache-dir", cacheDir},
			before: func(t *testing.T) { tearTail(t, filepath.Join(cacheDir, "sim-hybrid.journal"), 7) }},
	)

	refs := map[string][]byte{}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			if r.before != nil {
				r.before(t)
			}
			dir := t.TempDir()
			args := append([]string{"-eval", r.eval, "-out", dir}, e2eFixture...)
			args = append(args, r.flags...)
			tracePath := filepath.Join(dir, "run.jsonl")
			if r.trace {
				args = append(args, "-trace", tracePath)
			}
			runCmd(t, tool("experiments"), args...)
			got := readFile(t, filepath.Join(dir, "fig6.csv"))
			ref, ok := refs[r.eval]
			if !ok {
				if r.trace {
					t.Fatalf("the reference run of %s must be untraced", r.eval)
				}
				refs[r.eval] = got
				return
			}
			sameBytes(t, "fig6.csv", got, ref)
			if r.trace {
				if check := runCmd(t, tool("tracestat"), "-check", tracePath); !strings.Contains(check, "all closed") {
					t.Fatalf("tracestat -check: a finished run must close every span: %s", check)
				}
				summary := runCmd(t, tool("tracestat"), tracePath)
				if len(summary) == 0 || !strings.Contains(summary, r.summary) {
					t.Fatalf("tracestat summary lacks %q:\n%s", r.summary, summary)
				}
			}
		})
	}

	t.Run("spotlightd", func(t *testing.T) {
		ref, ok := refs[sim]
		if !ok {
			t.Fatal("no CLI reference CSV for " + sim)
		}
		d := startDaemon(t, tool("spotlightd"), "-addr", "127.0.0.1:0", "-jobs", "2")
		d.get(t, "/healthz", "")
		body := `{"kind":"experiment","steps":["fig6"],"models":["MobileNetV2"],"hw_samples":4,"sw_samples":6,"trials":1,"eval":"` + sim + `"}`
		for _, id := range []string{"job-1", "job-2"} {
			var st struct {
				ID string `json:"id"`
			}
			_, out := d.call(t, "POST", "/jobs", "", body, http.StatusCreated)
			if err := json.Unmarshal([]byte(out), &st); err != nil || st.ID != id {
				t.Fatalf("POST /jobs created %q (%v), want %s", st.ID, err, id)
			}
		}
		// The SSE stream follows job-1 live and closes on its terminal
		// state.
		stream := strings.Split(strings.TrimSpace(d.get(t, "/jobs/job-1/trace", "")), "\n")
		if len(stream) < 2 || stream[len(stream)-2] != "event: end" {
			t.Fatalf("trace stream does not end in event: end; last lines %q", stream[max(len(stream)-3, 0):])
		}
		for _, id := range []string{"job-1", "job-2"} {
			if st := d.waitTerminal(t, id); st != "done" {
				t.Fatalf("%s ended %s, want done", id, st)
			}
			sameBytes(t, id+" fig6.csv", []byte(d.get(t, "/jobs/"+id+"/artifacts/fig6.csv", "")), ref)
		}
		if p := d.get(t, "/jobs/job-1/progress", ""); !strings.Contains(p, `"trials_done"`) {
			t.Fatalf("progress lacks trials_done:\n%s", p)
		}
		// The duplicate job is served from the shared memo cache.
		if m := d.get(t, "/metrics", ""); !strings.Contains(m, "trace.cache.hit") {
			t.Fatalf("JSON /metrics lacks trace.cache.hit:\n%s", m)
		}
		scrape := d.get(t, "/metrics", "text/plain")
		scrapePath := filepath.Join(t.TempDir(), "scrape.prom")
		if err := os.WriteFile(scrapePath, []byte(scrape), 0o644); err != nil {
			t.Fatal(err)
		}
		runCmd(t, tool("promcheck"), scrapePath)
		if !strings.Contains(scrape, `job_trials_done{job="job-1"}`) {
			t.Fatalf("scrape lacks the per-job gauge job_trials_done{job=\"job-1\"}:\n%s", scrape)
		}
		if !strings.Contains("\n"+scrape, "\ngo_goroutines ") {
			t.Fatalf("scrape lacks a go_goroutines sample:\n%s", scrape)
		}
		head, _ := d.call(t, "HEAD", "/metrics", "text/plain", "", http.StatusOK)
		if ct := head.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("HEAD /metrics Content-Type = %q, want text/plain; version=0.0.4", ct)
		}
		d.drain(t)
	})
}

// runCmd runs a command to completion, failing the test on a nonzero
// exit, and returns its stdout.
func runCmd(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstdout:\n%s\nstderr:\n%s", filepath.Base(name), strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameBytes fails unless got is byte-identical to want.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the reference:\n%s\nreference:\n%s", what, got, want)
	}
}

// tearTail cuts the last n bytes off a file: the deterministic stand-in
// for a crash in the middle of an append.
func tearTail(t *testing.T, path string, n int) {
	t.Helper()
	data := readFile(t, path)
	if len(data) <= n {
		t.Fatalf("%s holds %d bytes, too few to tear %d off", path, len(data), n)
	}
	if err := os.WriteFile(path, data[:len(data)-n], 0o644); err != nil {
		t.Fatal(err)
	}
}

// daemon is a running spotlightd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	stderr  bytes.Buffer  // everything after the address line, for failure reports
	drained chan struct{} // closed once stderr reaches EOF, i.e. the process exited
}

// startDaemon starts spotlightd and waits for the address it prints.
// The process is killed at cleanup unless drain already stopped it.
func startDaemon(t *testing.T, path string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(path, args...), drained: make(chan struct{})}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			<-d.drained
			_ = d.cmd.Wait()
		}
	})
	rd := bufio.NewReader(pipe)
	for d.base == "" {
		line, err := rd.ReadString('\n')
		if err != nil {
			close(d.drained)
			t.Fatalf("spotlightd exited before printing its address: %v\n%s", err, line)
		}
		if _, rest, ok := strings.Cut(line, "serving on "); ok {
			d.base = strings.Fields(rest)[0]
		}
	}
	go func() {
		_, _ = io.Copy(&d.stderr, rd)
		close(d.drained)
	}()
	return d
}

// call makes one request, fails unless it answers want, and returns
// the response headers and body.
func (d *daemon) call(t *testing.T, method, path, accept, body string, want int) (http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s = %d, want %d\n%s", method, path, resp.StatusCode, want, data)
	}
	return resp.Header, string(data)
}

func (d *daemon) get(t *testing.T, path, accept string) string {
	t.Helper()
	_, body := d.call(t, "GET", path, accept, "", http.StatusOK)
	return body
}

// waitTerminal polls a job until it leaves the queued and running
// states, returning the state it ended in.
func (d *daemon) waitTerminal(t *testing.T, id string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for {
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(d.get(t, "/jobs/"+id, "")), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != "queued" && st.State != "running" {
			return st.State
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still %s after 5 minutes", id, st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// drain sends SIGTERM and requires a clean exit: jobs drained, journals
// flushed, status 0.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.drained:
	case <-time.After(time.Minute):
		t.Fatal("spotlightd did not exit within a minute of SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("spotlightd after SIGTERM: %v\n%s", err, d.stderr.String())
	}
}
