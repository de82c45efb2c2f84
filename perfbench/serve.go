package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/engine"
	"spotlight/internal/obs"
	"spotlight/internal/serve"
)

// serveWorkload drives spotlightd in-process: an engine.Runner behind
// serve.New on a loopback httptest server, with closed-loop clients that
// each submit a job, follow its SSE trace to the end, and fetch its
// artifacts before submitting the next.
type serveWorkload struct {
	models      []string
	eval        string
	hw, sw      int
	jobs        int
	clients     int
	concurrency int
}

// specs derives the job list from the benchmark seed. Every second job
// repeats a random earlier job's spec, so repeats read the shared memo
// cache while new specs miss it and append to the disk journal. New specs
// take the models in turn, so the seed changes the searches but not the
// mix of models or the share of repeats.
func (w serveWorkload) specs(seed int64) []engine.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]engine.JobSpec, w.jobs)
	fresh := 0
	for i := range out {
		if i%2 == 1 {
			out[i] = out[rng.Intn(i)]
			continue
		}
		out[i] = engine.JobSpec{
			Kind:      engine.KindSearch,
			Models:    []string{w.models[fresh%len(w.models)]},
			HWSamples: w.hw,
			SWSamples: w.sw,
			Seed:      rng.Int63n(1<<31) + 1,
			Eval:      w.eval,
			Workers:   1,
		}
		fresh++
	}
	return out
}

// jobTiming is what one client observed of one job, in milliseconds from
// the moment it sent the submit request.
type jobTiming struct {
	submitMS, firstEventMS, lastEventMS, artifactMS, totalMS float64
	events, sseBytes                                         int
	best                                                     float64 // the design's objective, from design.json
}

// run executes one repetition: set-up (runner with a fresh journal
// directory, pipeline built and journal opened, server started), then
// the measured closed loop.
func (w serveWorkload) run(seed int64, rec *recorder, dir string, res *repResult) error {
	cfg := engine.RunnerConfig{Concurrency: w.concurrency, CacheDir: dir}
	if rec != nil {
		cfg.Tracer = rec
	}
	runner := engine.NewRunner(cfg)
	pipe, err := runner.Pipelines().Get(w.eval)
	if err != nil {
		_ = runner.Shutdown(context.Background()) // the set-up error is the one to report
		return err
	}
	ts := httptest.NewServer(serve.New(runner, nil).Handler())
	specs := w.specs(seed)
	res.SetupEndUnixNano = time.Now().UnixNano()

	m := startMeasure()
	c := &serveClient{base: ts.URL, http: ts.Client(), rec: rec, artifacts: map[string]string{}}
	timings := make([]jobTiming, len(specs))
	errs := make([]error, len(specs))
	closedLoop(w.clients, len(specs), func(i int) {
		timings[i], errs[i] = c.job(specs[i])
	})
	m.stop(res)

	ts.Close()
	if err := runner.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutting down runner: %w", err)
	}

	var submit, queue, run, art, bests []float64
	var events, sseBytes int
	for i, t := range timings {
		res.Attempted++
		if errs[i] != nil {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("job %d: %v", i, errs[i]))
			continue
		}
		res.JobMS = append(res.JobMS, t.totalMS)
		submit = append(submit, t.submitMS)
		queue = append(queue, t.firstEventMS-t.submitMS)
		run = append(run, t.lastEventMS-t.firstEventMS)
		art = append(art, t.artifactMS)
		bests = append(bests, t.best)
		events += t.events
		sseBytes += t.sseBytes
	}
	res.Digest = c.digest(specs)
	res.Best = median(bests)

	l := pipelineLayers(pipe)
	cache := pipe.Cache().Snapshot()
	res.Evals = cache.Hits + cache.Misses
	if d := pipe.Disk(); d != nil && d.Store() != nil {
		l["eval.disk.appends"] = float64(d.Store().Snapshot().Puts)
		if fi, err := os.Stat(d.Store().Path()); err == nil {
			l["eval.disk.bytes"] = float64(fi.Size())
		}
	}
	l["engine.queue_wait_ms"] = median(queue)
	l["engine.run_ms"] = median(run)
	l["serve.submit_ms"] = median(submit)
	l["serve.artifact_ms"] = median(art)
	l["serve.sse_events"] = float64(events)
	l["serve.sse_bytes"] = float64(sseBytes)
	if rec != nil {
		addTraceLayers(l, rec.trace(), 0, 1)
		l["obs.trace_events_per_job"] = ratio(float64(events), float64(len(run)))
	}
	res.Layers = l
	return nil
}

// closedLoop runs n requests from the given number of clients. Each
// client sends its next request only after its previous one completed;
// do(i) performs request i and measures it from its own send time.
func closedLoop(clients, n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for k := 0; k < clients; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// serveClient is one spotlightd client session, shared by the closed-loop
// clients. It remembers the artifacts of the first job of each spec so
// every repeat of that spec can be checked against them.
type serveClient struct {
	base string
	http *http.Client
	rec  *recorder

	mu        sync.Mutex
	artifacts map[string]string // spec key → deterministic artifact bytes
}

// job runs one job end to end: submit, follow the SSE stream to its end
// event, fetch the artifacts. Times are measured from the send of the
// submit request.
func (c *serveClient) job(spec engine.JobSpec) (jobTiming, error) {
	var t jobTiming
	root := obs.StartSpan(c.tracer(), "bench.job")
	defer root.End()
	body, err := json.Marshal(spec)
	if err != nil {
		return t, err
	}
	start := time.Now()
	ms := func() float64 { return obs.MS(time.Since(start)) }

	sp := root.Child("bench.submit")
	var status engine.JobStatus
	err = c.do(http.MethodPost, "/jobs", bytes.NewReader(body), http.StatusCreated, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&status)
	})
	sp.End()
	t.submitMS = ms()
	if err != nil {
		return t, err
	}

	sp = root.Child("bench.sse")
	var state string
	err = c.do(http.MethodGet, "/jobs/"+status.ID+"/trace", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		ended := false
		for sc.Scan() {
			line := sc.Text()
			t.sseBytes += len(line) + 1
			data, isData := strings.CutPrefix(line, "data: ")
			switch {
			case line == "event: end":
				ended = true
			case isData && ended:
				state = data
				return nil
			case isData:
				now := ms()
				if t.events == 0 {
					t.firstEventMS = now
				}
				t.lastEventMS = now
				t.events++
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("trace stream ended without an end event")
	})
	sp.End()
	if err != nil {
		return t, err
	}
	if state != engine.StateDone {
		return t, fmt.Errorf("job %s ended in state %q", status.ID, state)
	}

	sp = root.Child("bench.artifacts")
	artStart := ms()
	var got strings.Builder
	for _, name := range []string{"design.json", "history.csv"} {
		err = c.do(http.MethodGet, "/jobs/"+status.ID+"/artifacts/"+name, nil, http.StatusOK, func(r io.Reader) error {
			b, err := io.ReadAll(r)
			if err != nil {
				return err
			}
			if name == "design.json" {
				var d struct{ Value float64 }
				if err := json.Unmarshal(b, &d); err != nil {
					return fmt.Errorf("decoding design.json: %w", err)
				}
				t.best = d.Value
			} else {
				b = dropElapsed(b)
			}
			got.Write(b)
			return nil
		})
		if err != nil {
			sp.End()
			return t, err
		}
	}
	sp.End()
	t.totalMS = ms()
	t.artifactMS = t.totalMS - artStart
	return t, c.check(spec, got.String())
}

func (c *serveClient) tracer() obs.Tracer {
	if c.rec == nil {
		return nil
	}
	return c.rec
}

// do sends one request and hands the body to read; any status other than
// want is an error.
func (c *serveClient) do(method, path string, body io.Reader, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return read(resp.Body)
}

// check records the first artifacts of a spec and compares every later
// job of the same spec against them byte for byte.
func (c *serveClient) check(spec engine.JobSpec, artifacts string) error {
	key := specKey(spec)
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, seen := c.artifacts[key]
	if !seen {
		c.artifacts[key] = artifacts
		return nil
	}
	if prev != artifacts {
		return fmt.Errorf("artifacts of repeated spec %s differ from the first run's", key)
	}
	return nil
}

// digest hashes the artifacts of every distinct spec in job order.
func (c *serveClient) digest(specs []engine.JobSpec) string {
	h := sha256.New()
	c.mu.Lock()
	defer c.mu.Unlock()
	done := map[string]bool{}
	for _, s := range specs {
		key := specKey(s)
		if !done[key] {
			done[key] = true
			fmt.Fprintf(h, "%s\x00%s\x00", key, c.artifacts[key])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func specKey(s engine.JobSpec) string {
	b, _ := json.Marshal(s) // a JobSpec always marshals
	return string(b)
}

// dropElapsed removes the elapsed_s column (column 2, wall clock by
// design) from a history CSV, leaving the deterministic columns.
func dropElapsed(csv []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.Split(string(csv), "\n") {
		cols := strings.Split(line, ",")
		if len(cols) > 1 {
			cols = append(cols[:1], cols[2:]...)
		}
		out.WriteString(strings.Join(cols, ","))
		out.WriteByte('\n')
	}
	return out.Bytes()
}
