# .github/workflows/ci.yml runs these targets (`make lint`, `make race`,
# ...), so every recipe lives only here and a green `make ci` locally
# means a green CI run. The end-to-end determinism invariants (fig6
# CSVs traced or untraced, at 1 or 8 workers, over a cold, warm or torn
# cache, from the CLI or spotlightd) are the Go test
# TestEndToEndInvariants, so `make test` and `make race` run them;
# batched against unbatched rounds is search.TestBatchedRunsBitIdentical. CI
# adds only steps with no target: the SARIF upload, the fuzz smoke
# (FuzzLayerSearchFaultSequences and FuzzFeatureRow in core,
# FuzzEvaluateBatch and FuzzEvaluate in maestro, FuzzFitTiles in sched),
# govulncheck, and -benchtime=1x smokes of BenchmarkDABOSuggest,
# BenchmarkScheduleSampling, BenchmarkSpotlightSWSuggest and
# BenchmarkFeatureTransform (both in internal/core), BenchmarkIntN,
# BenchmarkMaestroEvaluate, BenchmarkMaestroEvaluateBatch,
# BenchmarkTimeloopEvaluate, BenchmarkSimulateTrace,
# BenchmarkTransformerLayerSearch, BenchmarkEvalCache,
# BenchmarkTraceOverhead and BenchmarkStore. Performance is
# measured by `bash perfbench/run.sh`. The allocation gates on pooled
# paths (testing.AllocsPerRun over sync.Pool scratch) skip themselves
# under `make race`: the race detector makes sync.Pool drop items at
# random. `make test` runs them; the layer-slot gate touches no pool and
# runs under both. `make chaos` repeats the cancellation, checkpoint,
# memo-cache concurrency and panic, layer-slot and determinism tests
# under -race, and the disk journal's concurrent Put/Get test. `make
# repeat` runs the packages with process-wide state (the sched divisor
# and tiling-table memos, the eval backend registry) twice in one
# process, so state one run leaves behind cannot break the next.

GO ?= go

.PHONY: all build test lint sarif vet fmt race chaos repeat perfbench ci

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the blocking CI gate: vet, gofmt, then the repo's own
# spotlightlint analyzers (determinism, hygiene & concurrency-lifecycle
# invariants), package-parallel, followed by the suppression audit that
# fails on any //lint:allow without a reason.
lint: vet fmt
	$(GO) run ./cmd/lint -parallel 0 ./...
	$(GO) run ./cmd/lint -allows ./...

# sarif renders the lint findings as SARIF 2.1.0, the format CI uploads
# so findings annotate pull requests inline.
sarif:
	$(GO) run ./cmd/lint -parallel 0 -format sarif -o spotlightlint.sarif ./... || true
	@echo wrote spotlightlint.sarif

vet:
	$(GO) vet ./...

fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

race:
	$(GO) test -race -count=1 ./...

# chaos also runs the memo cache's concurrent-caller, double-miss,
# panic and duplicate-key tests: callers that miss one key at once each
# publish under the shard lock, which only -race and repetition
# exercise. The core LayerSlot tests run
# here too: a layer slot passes from the driver goroutine, which resets
# it in NewSW, to the worker that searches its layer, every hardware
# sample. So do the tests named Deterministic, among them core's
# worker-count and multi-model run repetitions: a run must repeat bit
# for bit with the race detector reordering its goroutines. The Cancel
# pattern also races the engine's TestRunnerCancelRunningExperiment and
# TestRunnerShutdownCancelsExperiment (an experiment job stops at its
# next sample, not at its step's end) and exp's
# TestDriversStopOnCanceledContext and
# TestFig6CanceledAfterFirstTrialReturnsNoRows. ConcurrentPutGet races
# the disk journal: Get reads records back from the file while Put
# appends to it.
chaos:
	$(GO) test -race -run 'Chaos|Checkpoint|Cancel|ConcurrentCallersOfOneKey|ConcurrentDoubleMiss|PanicLeavesNoEntry|DuplicateKeys|LayerSlot|Deterministic|ConcurrentPutGet' -count=2 ./...

repeat:
	$(GO) test -count=2 ./internal/core/ ./internal/sched/ ./internal/eval/

# perfbench vets and tests the benchmark harness, a nested module that
# builds against this one: a change to the evaluator contract that
# breaks it fails here rather than at benchmark time.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: lint build test race chaos repeat perfbench
