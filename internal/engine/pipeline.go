package engine

import (
	"errors"
	"sort"
	"sync"

	"spotlight/internal/eval"
)

// PipelineSet builds and shares evaluation pipelines by spec string.
// Every consumer of the same spec — the two steps of one experiment job,
// or two concurrent spotlightd jobs — gets the same *eval.Pipeline, so
// the memo cache (and the persistent disk journal under it) deduplicates
// evaluations across all of them, and one set of counters records the
// backend work they share. Sharing is sound because the cache layers are
// trajectory-neutral by the eval package's contract: a shared pipeline
// returns bit-identical results to a private one.
type PipelineSet struct {
	opts eval.SpecOptions

	mu    sync.Mutex
	pipes map[string]*eval.Pipeline
}

// NewPipelineSet returns an empty set. opts is the template every
// pipeline is built with (tracer, cache directory, guard policy);
// FromSpec's per-spec behavior — diskcache and guard insertion — is
// applied per Get.
func NewPipelineSet(opts eval.SpecOptions) *PipelineSet {
	return &PipelineSet{opts: opts, pipes: map[string]*eval.Pipeline{}}
}

// Get returns the pipeline for spec, building it on first use. Errors
// (unknown backend, malformed middleware token) are not cached: a retry
// with a corrected spec is unaffected by earlier failures.
func (ps *PipelineSet) Get(spec string) (*eval.Pipeline, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.pipes == nil {
		return nil, errors.New("engine: pipeline set is closed")
	}
	if p, ok := ps.pipes[spec]; ok {
		return p, nil
	}
	p, err := eval.FromSpec(spec, ps.opts)
	if err != nil {
		return nil, err
	}
	ps.pipes[spec] = p
	return p, nil
}

// Report renders the backend/cache/disk counters of every pipeline in the
// set, in spec order, for the CLIs' -eval-stats flag.
func (ps *PipelineSet) Report() string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := ""
	for _, spec := range ps.sortedSpecs() {
		out += ps.pipes[spec].Report()
	}
	return out
}

// Close flushes and closes every pipeline (today: their persistent cache
// journals), in spec order, and marks the set closed. The first error is
// returned; per the degradation contract it signals records that may not
// have reached disk, never a failed run.
func (ps *PipelineSet) Close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var firstErr error
	for _, spec := range ps.sortedSpecs() {
		if err := ps.pipes[spec].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ps.pipes = nil
	return firstErr
}

// sortedSpecs returns the built specs sorted, so reporting and close
// order are deterministic. Callers hold ps.mu.
func (ps *PipelineSet) sortedSpecs() []string {
	specs := make([]string, 0, len(ps.pipes))
	for spec := range ps.pipes { //lint:allow maporder(sorted before use on the next line)
		specs = append(specs, spec)
	}
	sort.Strings(specs)
	return specs
}
