// Command perfbench is the repository's benchmark: end-to-end host-time
// metrics for the co-design search and for spotlightd, and, in a separate
// traced run, a per-layer breakdown of where that time goes. See
// README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload codesign-maestro --seed 1 --seconds 30 --trace 0
//
// The parent process repeats the workload in fresh child processes (this
// same binary with -child) until --seconds have passed, and prints one
// JSON result as the last line of its standard output. All times are
// host time; best_objective is simulated cycles from the repository's
// analytical or hybrid cost model, which is not validated against
// hardware.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads are the benchmark's workloads by name: codesignWorkload or
// serveWorkload values. README.md says why each was chosen.
var workloads = map[string]any{
	"codesign-maestro": codesignWorkload{strategy: "spotlight", model: "ResNet-50", eval: "maestro,cache,stats", hw: 3, sw: 24, jobs: 8, seedSalt: 0x6d61},
	"codesign-sim":     codesignWorkload{strategy: "spotlight", model: "MobileNetV2", eval: "sim,cache,stats", hw: 1, sw: 2, jobs: 16, seedSalt: 0x7369},
	"spotlightd-shared": serveWorkload{
		models: []string{"MobileNetV2", "ResNet-50", "MnasNet"}, eval: "maestro,cache",
		hw: 2, sw: 12, jobs: 60, clients: 2, concurrency: 2,
	},
}

// repResult is what one child process reports about one repetition.
type repResult struct {
	Traced           bool               `json:"traced"`
	SetupEndUnixNano int64              `json:"setup_end_unix_ns"`
	WallS            float64            `json:"wall_s"`
	AllocBytes       uint64             `json:"alloc_bytes"`
	HeapPeakBytes    uint64             `json:"heap_peak_bytes"`
	Evals            int64              `json:"evals"`
	JobMS            []float64          `json:"job_ms"`
	Attempted        int                `json:"attempted"`
	Failed           int                `json:"failed"`
	Errors           []string           `json:"errors,omitempty"`
	Best             float64            `json:"best"`
	Digest           string             `json:"digest"`
	Layers           map[string]float64 `json:"layers"`
}

func main() {
	child := flag.Bool("child", false, "run one repetition and print its raw result (internal)")
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "how long to keep repeating the workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	traced := flag.Bool("traced", false, "child: run the traced variant")
	dir := flag.String("dir", "", "child: scratch directory for the disk journal")
	traceOut := flag.String("trace-out", "", "child: write the traced run's JSONL trace here")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if *child {
		if err := runChild(w, *seed, *traced, *dir, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := runParent(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runChild runs one repetition in this process and prints its result as
// one JSON line.
func runChild(w any, seed int64, traced bool, dir, traceOut string) error {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	res := repResult{Traced: traced}
	var err error
	switch w := w.(type) {
	case codesignWorkload:
		err = w.run(seed, rec, &res)
	case serveWorkload:
		err = w.run(seed, rec, dir, &res)
	}
	if err != nil {
		return err
	}
	if rec != nil && traceOut != "" {
		events := rec.trace()
		if err := checkTrace(events); err != nil {
			return fmt.Errorf("trace check: %w", err)
		}
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := writeJSONL(f, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// measure tracks the measured phase of a repetition: wall time, bytes
// allocated, and the peak live heap. Live heap is what the last garbage
// collection found reachable, sampled every millisecond; unlike heap in
// use it does not depend on how far the collector lags behind.
type measure struct {
	start  time.Time
	alloc0 uint64
	stopc  chan struct{}
	done   chan uint64
}

// readHeap returns the bytes allocated so far and the live heap.
func readHeap() (alloc, live uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// startMeasure collects garbage left by set-up, then starts the clock and
// the heap sampler.
func startMeasure() *measure {
	runtime.GC()
	m := &measure{stopc: make(chan struct{}), done: make(chan uint64)}
	m.alloc0, _ = readHeap()
	go func() {
		var peak uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if _, in := readHeap(); in > peak {
				peak = in
			}
			select {
			case <-m.stopc:
				m.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	m.start = time.Now()
	return m
}

// stop ends the measured phase and records it into res.
func (m *measure) stop(res *repResult) {
	res.WallS = time.Since(m.start).Seconds()
	close(m.stopc)
	res.HeapPeakBytes = <-m.done
	runtime.GC() // the heap the phase leaves behind counts too
	alloc, live := readHeap()
	res.AllocBytes = alloc - m.alloc0
	res.HeapPeakBytes = max(res.HeapPeakBytes, live)
}

// runParent repeats the workload in fresh child processes until the time
// is up, checks that every repetition produced the same outputs, and
// prints the metrics. A traced run alternates untraced and traced
// children, so trace_overhead_ratio compares like with like.
func runParent(workload string, seed int64, seconds int, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	traceOut := ""
	if traced {
		traceOut, err = filepath.Abs(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
			return err
		}
	}

	const minReps = 4
	var reps []repResult
	var setups []float64
	var errs []string
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		tracedRep := traced && i%2 == 1
		args := []string{"-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-dir", filepath.Join(scratch, strconv.Itoa(i))}
		if tracedRep {
			args = append(args, "-traced")
			if traceOut != "" {
				args = append(args, "-trace-out", traceOut)
				traceOut = ""
			}
		}
		spawn := time.Now()
		res, err := runOne(self, args)
		if err != nil {
			errs = append(errs, fmt.Sprintf("repetition %d: %v", i, err))
			reps = append(reps, repResult{Traced: tracedRep, Attempted: 1, Failed: 1})
			continue
		}
		setups = append(setups, float64(res.SetupEndUnixNano-spawn.UnixNano())/1e9)
		reps = append(reps, res)
	}
	return report(os.Stdout, reps, setups, errs, traced)
}

// runOne runs one child and decodes the result it printed last.
func runOne(self string, args []string) (repResult, error) {
	var res repResult
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("decoding child result: %w", err)
	}
	return res, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report checks the repetitions against each other, prints a readable
// table, and prints the JSON result line last.
func report(w io.Writer, reps []repResult, setups []float64, errs []string, traced bool) error {
	attempted, failed := 0, 0
	var digest string
	var best float64
	var wall, evalRate, allocMB, heapMB, jobRate, jobs []float64
	var tracedWall, plainWall []float64
	layers := map[string][]float64{}
	for i, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
		errs = append(errs, r.Errors...)
		if r.Digest == "" {
			continue
		}
		// Every repetition runs the same inputs, traced or not, so the
		// outputs must match the first repetition's bit for bit.
		if digest == "" {
			digest, best = r.Digest, r.Best
		} else if r.Digest != digest || r.Best != best {
			failed++
			errs = append(errs, fmt.Sprintf("repetition %d: outputs differ from repetition 0 (traced=%v)", i, r.Traced))
		}
		if r.Traced {
			tracedWall = append(tracedWall, r.WallS)
			for k, v := range r.Layers {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		plainWall = append(plainWall, r.WallS)
		wall = append(wall, r.WallS)
		evalRate = append(evalRate, float64(r.Evals)/r.WallS)
		allocMB = append(allocMB, float64(r.AllocBytes)/1e6)
		heapMB = append(heapMB, float64(r.HeapPeakBytes)/1e6)
		jobRate = append(jobRate, float64(len(r.JobMS))/r.WallS)
		jobs = append(jobs, r.JobMS...)
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	if digest == "" {
		return errors.New("no repetition completed")
	}
	if attempted == 0 {
		attempted = 1
	}

	pct := tailPercentile(len(jobs))
	vals := map[string]float64{}
	if traced {
		for k, v := range layers {
			vals[k] = median(v)
		}
		vals["best_objective"] = best
		vals["job.samples"] = float64(len(jobs))
		vals["job.tail_pct"] = pct
		vals["trace_overhead_ratio"] = ratio(median(tracedWall), median(plainWall))
	} else {
		vals["setup_s"] = median(setups)
		vals["wall_s"] = median(wall)
		vals["evals_per_s"] = median(evalRate)
		vals["alloc_mb"] = median(allocMB)
		vals["heap_peak_mb"] = median(heapMB)
		vals["jobs_per_s"] = median(jobRate)
		vals["job_p50_ms"] = median(jobs)
		vals["job_p90_ms"] = quantile(jobs, pct/100)
		vals["success_ratio"] = 1 - float64(failed)/float64(attempted)
	}
	set := endToEnd
	if traced {
		set = perLayer
	}
	// A layer the workload does not exercise reports 0.
	out := map[string]metric{}
	for _, m := range set {
		out[m.name] = metric{vals[m.name], m.unit}
	}

	tw := bufio.NewWriter(w)
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(tw, "%d repetitions, %d jobs attempted, %d failed; job tail reported at p%.0f of %d jobs\n",
		len(reps), attempted, failed, pct, len(jobs))
	for _, k := range names {
		fmt.Fprintf(tw, "  %-30s %14.6g %s\n", k, out[k].Value, out[k].Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	tw.Write(line)
	tw.WriteByte('\n')
	return tw.Flush()
}
