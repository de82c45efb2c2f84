// Package serve is spotlightd's HTTP layer: a thin JSON/SSE adapter over
// engine.Runner. It owns no orchestration — submission, queueing,
// cancellation, resume, and artifact retention all live in the engine —
// so everything here is request decoding, status-code mapping, and
// streaming.
//
// API (see DESIGN.md §14):
//
//	POST /jobs                       submit a JobSpec, returns its status
//	GET  /jobs                       list all jobs, submission order
//	GET  /jobs/{id}                  one job's status
//	POST /jobs/{id}/cancel           cancel (409 once terminal)
//	POST /jobs/{id}/resume           continue a terminal search job from
//	                                 its retained checkpoint
//	GET  /jobs/{id}/trace            SSE stream of the job's trace events
//	GET  /jobs/{id}/progress         live progress: incumbent, trials,
//	                                 eval throughput, cache-hit rate, ETA
//	GET  /jobs/{id}/artifacts/{name} one artifact's bytes (e.g. fig6.csv)
//	GET  /healthz                    liveness
//	GET  /metrics, /debug/pprof/*    the PR 5 introspection endpoints
//
// The SSE wire format is the internal/obs JSONL taxonomy verbatim: each
// `data:` line is one obs.Event marshaled exactly as the -trace file
// would hold it, so tracestat-style consumers parse either source. The
// stream ends with an `event: end` message whose data is the job's final
// state.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"spotlight/internal/engine"
	"spotlight/internal/obs"
)

// Server adapts an engine.Runner to HTTP.
type Server struct {
	runner *engine.Runner
	mux    *http.ServeMux
}

// New builds the server and its routes. reg, if non-nil, gets the
// /metrics and /debug/pprof/* endpoints mounted alongside the job API.
func New(runner *engine.Runner, reg *obs.Registry) *Server {
	s := &Server{runner: runner, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.submit)
	s.mux.HandleFunc("GET /jobs", s.list)
	s.mux.HandleFunc("GET /jobs/{id}", s.status)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.cancel)
	s.mux.HandleFunc("POST /jobs/{id}/resume", s.resume)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.trace)
	s.mux.HandleFunc("GET /jobs/{id}/progress", s.progress)
	s.mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", s.artifact)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if reg != nil {
		// Roll every job's progress into labeled per-job gauges on each
		// /metrics scrape. The hook reads only per-job snapshots (no
		// runner or registry locks are held across it), so a scrape can
		// never stall a running search.
		reg.OnScrape(func() { rollupJobGauges(runner, reg) })
		obs.Mount(s.mux, reg)
	}
	return s
}

// rollupJobGauges publishes each job's progress as labeled gauges
// (job.trials.done{job="job-1"}, ...). Gauges are created on first
// scrape after the job appears and simply stop moving once it ends.
func rollupJobGauges(runner *engine.Runner, reg *obs.Registry) {
	for _, j := range runner.Jobs() {
		p := j.Progress()
		label := []string{"job", p.ID}
		reg.Gauge(obs.Labeled("job.trials.done", label...)).Set(float64(p.TrialsDone))
		if p.TrialsTotal > 0 {
			reg.Gauge(obs.Labeled("job.trials.total", label...)).Set(float64(p.TrialsTotal))
		}
		reg.Gauge(obs.Labeled("job.evals", label...)).Set(float64(p.Evals))
		reg.Gauge(obs.Labeled("job.evals.per.sec", label...)).Set(p.EvalsPerSec)
		reg.Gauge(obs.Labeled("job.cache.hit.rate", label...)).Set(p.CacheHitRate)
		reg.Gauge(obs.Labeled("job.elapsed.seconds", label...)).Set(p.ElapsedS)
		if p.BestObjective != nil {
			reg.Gauge(obs.Labeled("job.best.objective", label...)).Set(*p.BestObjective)
		}
	}
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// errorBody is the JSON error envelope. Backends is set only for
// unknown-backend submissions, so the client learns what exists.
type errorBody struct {
	Error    string   `json:"error"`
	Backends []string `json:"backends,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error here means the client hung up; there is no one
	// left to tell.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	body := errorBody{Error: err.Error()}
	if unknown, ok := engine.IsUnknownBackend(err); ok {
		body.Backends = unknown.Registered
	}
	writeJSON(w, code, body)
}

// maxSubmitBytes bounds a submitted job spec. Real specs are a few
// hundred bytes; the bound keeps one request from making the server
// buffer an arbitrarily large body.
const maxSubmitBytes = 1 << 20

// submit decodes a JobSpec strictly — unknown fields are a 400, catching
// typos like "step" for "steps" before they silently change a run, and a
// body over maxSubmitBytes is a 413 — and enqueues it.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec engine.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	job, err := s.runner.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, engine.ErrShuttingDown) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, job.Status())
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	jobs := s.runner.Jobs()
	statuses := make([]engine.JobStatus, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	job, ok := s.runner.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, engine.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	err := s.runner.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
	case errors.Is(err, engine.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, engine.ErrJobFinished):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) resume(w http.ResponseWriter, r *http.Request) {
	job, err := s.runner.Resume(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, job.Status())
	case errors.Is(err, engine.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, engine.ErrNotResumable):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, engine.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// trace streams the job's events as SSE. Events already buffered are
// replayed first, then the stream follows the job live until it reaches
// a terminal state, closing with `event: end` and the final state. The
// handler returns when the client disconnects or the job ends.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.runner.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, engine.ErrNotFound)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("serve: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	buf := job.Trace()
	sse := newSSEWriter(w)
	for i := 0; ; {
		events, done, more := buf.Since(i)
		for _, e := range events {
			if err := sse.event(e); err != nil {
				return // unencodable event, or the client went away
			}
		}
		if len(events) > 0 {
			flusher.Flush()
		}
		i += len(events)
		if done && len(events) == 0 {
			fmt.Fprintf(w, "event: end\ndata: %s\n\n", job.Status().State)
			flusher.Flush()
			return
		}
		if len(events) == 0 {
			select {
			case <-more:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// sseWriter writes trace events as SSE data messages, "data: <event>"
// and a blank line, where <event> is the object the -trace file would
// hold for it. It encodes each frame into one reused buffer and sends
// it in one Write, so streaming an event allocates nothing.
type sseWriter struct {
	w     io.Writer
	frame bytes.Buffer
	enc   *obs.Encoder // writes into frame
}

func newSSEWriter(w io.Writer) *sseWriter {
	s := &sseWriter{w: w}
	s.enc = obs.NewEncoder(&s.frame)
	return s
}

// event writes one event's frame.
func (s *sseWriter) event(e obs.Event) error {
	s.frame.Reset()
	s.frame.WriteString("data: ")
	if err := s.enc.Encode(e); err != nil { // the object and its newline
		return err
	}
	s.frame.WriteByte('\n')
	_, err := s.w.Write(s.frame.Bytes())
	return err
}

// progress serves the job's live progress snapshot: incumbent so far,
// trials done/total, evaluation throughput, cache-hit rate, and ETA.
func (s *Server) progress(w http.ResponseWriter, r *http.Request) {
	job, ok := s.runner.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, engine.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job.Progress())
}

func (s *Server) artifact(w http.ResponseWriter, r *http.Request) {
	job, ok := s.runner.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, engine.ErrNotFound)
		return
	}
	name := r.PathValue("name")
	data, ok := job.Artifact(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: job %s has no artifact %q", job.ID(), name))
		return
	}
	switch {
	case strings.HasSuffix(name, ".json"):
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/csv")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
