# .github/workflows/ci.yml runs these targets (`make lint`, `make race`,
# ...), so every recipe lives only here and a green `make ci` locally
# means a green CI run. The end-to-end determinism invariants (fig6
# CSVs traced or untraced, batched or not, at 1 or 8 workers, over a
# cold, warm or torn cache, from the CLI or spotlightd) are the Go test
# TestEndToEndInvariants, so `make test` and `make race` run them. CI
# adds only steps with no target: the SARIF upload, the fuzz smoke,
# govulncheck, and -benchtime=1x smokes of BenchmarkDABOSuggest,
# BenchmarkSpotlightSWSuggest, BenchmarkScheduleSampling,
# BenchmarkMaestroEvaluateBatch, BenchmarkTransformerLayerSearch,
# BenchmarkEvalCache and BenchmarkTraceOverhead. Performance is
# measured by `bash perfbench/run.sh`.

GO ?= go

.PHONY: all build test lint sarif vet fmt race chaos perfbench ci

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

chaos:
	$(GO) test -race -run 'Chaos|Checkpoint|Cancel' -count=2 ./...

# perfbench vets and tests the benchmark harness, a nested module that
# builds against this one: a change to the evaluator contract that
# breaks it fails here rather than at benchmark time.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: lint build test race chaos perfbench
