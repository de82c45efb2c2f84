# .github/workflows/ci.yml runs these targets (`make lint`, `make race`,
# `make tracesmoke`, ...), so every recipe lives only here and a green
# `make ci` locally means a green CI run. CI adds only steps with no
# target: the SARIF upload, the fuzz smoke, the BenchmarkDABOSuggest,
# BenchmarkSpotlightSWSuggest, BenchmarkScheduleSampling and
# BenchmarkEvalCache smokes, and govulncheck. Performance is measured
# by `bash perfbench/run.sh`.

GO ?= go

.PHONY: all build test lint sarif vet fmt race chaos perfbench tracesmoke batchsmoke crashsmoke servesmoke metricssmoke ci

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

# tracesmoke proves the observe-only invariant end to end through the
# CLI: a traced and an untraced fig6 run produce byte-identical CSVs,
# and the trace passes schema validation. CI runs this target.
tracesmoke:
	$(GO) test -run=NONE -bench=BenchmarkTraceOverhead -benchtime=1x ./internal/eval/...
	$(GO) build -o /tmp/experiments ./cmd/experiments
	$(GO) build -o /tmp/tracestat ./cmd/tracestat
	/tmp/experiments -fig 6 -models MobileNetV2 -hw 4 -sw 6 -trials 1 -eval sim,cache,stats -out /tmp/untraced
	/tmp/experiments -fig 6 -models MobileNetV2 -hw 4 -sw 6 -trials 1 -eval sim,cache,stats -out /tmp/traced -trace /tmp/run.jsonl
	cmp /tmp/untraced/fig6.csv /tmp/traced/fig6.csv
	/tmp/tracestat -check /tmp/run.jsonl
	/tmp/tracestat /tmp/run.jsonl

# batchsmoke proves the batching invariant end to end through the CLI:
# fig6 CSVs are byte-identical batched vs unbatched (-nobatch), at 1 and
# 8 workers, traced or untraced, and the batched trace (which carries
# eval.batch events) passes schema validation. CI runs this target.
batchsmoke:
	$(GO) test -run=NONE -bench 'BenchmarkMaestroEvaluateBatch|BenchmarkTransformerLayerSearch' -benchtime=1x .
	$(GO) build -o /tmp/experiments ./cmd/experiments
	$(GO) build -o /tmp/tracestat ./cmd/tracestat
	/tmp/experiments -fig 6 -models MobileNetV2 -hw 4 -sw 6 -trials 1 -workers 1 -out /tmp/batched1
	/tmp/experiments -fig 6 -models MobileNetV2 -hw 4 -sw 6 -trials 1 -workers 8 -out /tmp/batched8 -trace /tmp/batched.jsonl
	/tmp/experiments -fig 6 -models MobileNetV2 -hw 4 -sw 6 -trials 1 -workers 1 -nobatch -out /tmp/unbatched1
	/tmp/experiments -fig 6 -models MobileNetV2 -hw 4 -sw 6 -trials 1 -workers 8 -nobatch -out /tmp/unbatched8
	cmp /tmp/batched1/fig6.csv /tmp/unbatched1/fig6.csv
	cmp /tmp/batched1/fig6.csv /tmp/batched8/fig6.csv
	cmp /tmp/batched1/fig6.csv /tmp/unbatched8/fig6.csv
	/tmp/tracestat -check /tmp/batched.jsonl
	/tmp/tracestat /tmp/batched.jsonl

# crashsmoke proves the persistent cache's crash-safety invariant end to
# end through the CLI: a cold run, a warm run over the same cache
# directory, and a run after the journal's tail is torn off (the
# deterministic stand-in for a crash mid-append) all produce
# byte-identical fig6 CSVs, and the warm trace carries cache.persist
# events. CI runs this target.
crashsmoke:
	$(GO) build -o /tmp/experiments ./cmd/experiments
	$(GO) build -o /tmp/tracestat ./cmd/tracestat
	rm -rf /tmp/evalcache && mkdir -p /tmp/evalcache
	/tmp/experiments -fig 6 -models MobileNetV2 -hw 4 -sw 6 -trials 1 -eval sim,cache,stats -cache-dir /tmp/evalcache -out /tmp/cachecold
	/tmp/experiments -fig 6 -models MobileNetV2 -hw 4 -sw 6 -trials 1 -eval sim,cache,stats -cache-dir /tmp/evalcache -out /tmp/cachewarm -trace /tmp/warm.jsonl
	cmp /tmp/cachecold/fig6.csv /tmp/cachewarm/fig6.csv
	S=$$(stat -c %s /tmp/evalcache/sim-hybrid.journal); \
	  head -c $$((S - 7)) /tmp/evalcache/sim-hybrid.journal > /tmp/evalcache/torn && \
	  mv /tmp/evalcache/torn /tmp/evalcache/sim-hybrid.journal
	/tmp/experiments -fig 6 -models MobileNetV2 -hw 4 -sw 6 -trials 1 -eval sim,cache,stats -cache-dir /tmp/evalcache -out /tmp/cacherecovered
	cmp /tmp/cachecold/fig6.csv /tmp/cacherecovered/fig6.csv
	/tmp/tracestat -check /tmp/warm.jsonl
	/tmp/tracestat /tmp/warm.jsonl | grep "persistent cache:"

# servesmoke proves the engine-relocation invariant end to end over
# HTTP: a fig6 CSV produced by spotlightd is byte-identical to the one
# cmd/experiments writes with the same spec, the SSE trace stream closes
# with `event: end`, a duplicate submission is served from the shared
# pipeline's cache (trace.cache.hit on /metrics), and SIGTERM drains to
# a clean exit. CI runs this target.
servesmoke:
	$(GO) build -o /tmp/experiments ./cmd/experiments
	$(GO) build -o /tmp/spotlightd ./cmd/spotlightd
	/tmp/experiments -fig 6 -models MobileNetV2 -hw 4 -sw 6 -trials 1 -eval sim,cache,stats -out /tmp/clifig6
	set -e; \
	/tmp/spotlightd -addr 127.0.0.1:7077 -jobs 2 & SD=$$!; \
	trap 'kill $$SD 2>/dev/null || true' EXIT; \
	for i in $$(seq 50); do curl -sf http://127.0.0.1:7077/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:7077/healthz >/dev/null; \
	BODY='{"kind":"experiment","steps":["fig6"],"models":["MobileNetV2"],"hw_samples":4,"sw_samples":6,"trials":1,"eval":"sim,cache,stats"}'; \
	curl -sf -X POST http://127.0.0.1:7077/jobs -d "$$BODY" >/dev/null; \
	curl -sf -X POST http://127.0.0.1:7077/jobs -d "$$BODY" >/dev/null; \
	curl -sN http://127.0.0.1:7077/jobs/job-1/trace | grep -q '^event: end'; \
	for i in $$(seq 300); do curl -s http://127.0.0.1:7077/jobs/job-2 | grep -q '"state": "done"' && break; sleep 0.5; done; \
	curl -s http://127.0.0.1:7077/jobs/job-2 | grep -q '"state": "done"'; \
	curl -sf http://127.0.0.1:7077/jobs/job-1/artifacts/fig6.csv > /tmp/served1.csv; \
	curl -sf http://127.0.0.1:7077/jobs/job-2/artifacts/fig6.csv > /tmp/served2.csv; \
	curl -sf http://127.0.0.1:7077/metrics | grep -q 'trace.cache.hit'; \
	kill -TERM $$SD; wait $$SD
	cmp /tmp/clifig6/fig6.csv /tmp/served1.csv
	cmp /tmp/clifig6/fig6.csv /tmp/served2.csv

# metricssmoke proves the Prometheus exposition end to end: spotlightd's
# /metrics negotiates the 0.0.4 text format (validated by the strict
# parser behind cmd/promcheck), answers HEAD with the same Content-Type,
# keeps JSON as the default representation, and publishes per-job
# progress both as JSON (/jobs/{id}/progress) and as labeled per-job
# gauges on the scrape. CI runs this target.
metricssmoke:
	$(GO) build -o /tmp/spotlightd ./cmd/spotlightd
	$(GO) build -o /tmp/promcheck ./cmd/promcheck
	set -e; \
	/tmp/spotlightd -addr 127.0.0.1:7078 -jobs 2 & SD=$$!; \
	trap 'kill $$SD 2>/dev/null || true' EXIT; \
	for i in $$(seq 50); do curl -sf http://127.0.0.1:7078/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:7078/healthz >/dev/null; \
	BODY='{"kind":"experiment","steps":["fig6"],"models":["MobileNetV2"],"hw_samples":4,"sw_samples":6,"trials":1,"eval":"sim,cache,stats"}'; \
	curl -sf -X POST http://127.0.0.1:7078/jobs -d "$$BODY" >/dev/null; \
	for i in $$(seq 300); do curl -s http://127.0.0.1:7078/jobs/job-1 | grep -q '"state": "done"' && break; sleep 0.5; done; \
	curl -s http://127.0.0.1:7078/jobs/job-1 | grep -q '"state": "done"'; \
	curl -sf http://127.0.0.1:7078/jobs/job-1/progress | grep -q '"trials_done"'; \
	curl -sf http://127.0.0.1:7078/metrics | grep -q 'trace.cache.hit'; \
	curl -sf -H 'Accept: text/plain' http://127.0.0.1:7078/metrics > /tmp/scrape.prom; \
	/tmp/promcheck /tmp/scrape.prom; \
	grep -q 'job_trials_done{job="job-1"}' /tmp/scrape.prom; \
	grep -q '^go_goroutines ' /tmp/scrape.prom; \
	curl -sfI -H 'Accept: text/plain' http://127.0.0.1:7078/metrics | grep -qi 'content-type: text/plain; version=0.0.4'; \
	kill -TERM $$SD; wait $$SD

ci: lint build test race chaos perfbench tracesmoke batchsmoke crashsmoke servesmoke metricssmoke
