package main

// endToEnd lists the end-to-end metrics of an untraced run, with units.
// Times are host time.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"evals_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"heap_peak_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"success_ratio", "ratio"},
}

// perLayer lists every per-layer metric the traced run reports, with its
// unit. A workload that does not exercise a layer reports 0 for it (see
// README.md for which workload covers which layer).
var perLayer = []struct{ name, unit string }{
	{"core.sw_suggest.calls", "count"},
	{"core.sw_suggest.busy_ms", "ms"},
	{"core.sw_suggest.us_per_call", "us"},
	{"core.sw_observe.busy_ms", "ms"},
	{"core.hw_suggest.busy_ms", "ms"},
	{"core.hw_observe.busy_ms", "ms"},
	{"core.trial.self_ms", "ms"},
	{"core.sw_layer.self_ms", "ms"},
	{"gp.fit.count", "count"},
	{"gp.fit.busy_ms", "ms"},
	{"pool.layer_busy_ms", "ms"},
	{"pool.idle_ratio", "ratio"},
	{"pool.proposer_share", "ratio"},
	{"pool.eval_share", "ratio"},
	{"eval.pipeline.calls", "count"},
	{"eval.pipeline.items", "count"},
	{"eval.pipeline.busy_ms", "ms"},
	{"eval.pipeline.batch_mean", "count"},
	{"eval.cache.hits", "count"},
	{"eval.cache.misses", "count"},
	{"eval.cache.coalesced", "count"},
	{"eval.cache.hit_ratio", "ratio"},
	{"eval.disk.appends", "count"},
	{"eval.disk.bytes", "bytes"},
	{"eval.backend.evals", "count"},
	{"eval.backend.busy_ms", "ms"},
	{"eval.backend.invalid_ratio", "ratio"},
	{"sim.simulated", "count"},
	{"sim.fallback", "count"},
	{"engine.queue_wait_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.artifact_ms", "ms"},
	{"serve.sse_events", "count"},
	{"serve.sse_bytes", "bytes"},
	{"obs.trace_events_per_job", "count"},
	{"trace_overhead_ratio", "ratio"},
	{"best_objective", "cycles"},
	{"job.samples", "count"},
	{"job.tail_pct", "%"},
}
