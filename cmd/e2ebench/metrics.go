package main

// The benchmark's metric catalogue. BENCHMARK.json at the repository
// root declares the same names and units and is the only place that
// holds each metric's direction and regression bound; main_test.go keeps
// the names and units in step.

// endToEnd are the metrics a user of the daemon sees, reported with
// tracing off for every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// layerSpec is one per-layer metric and the prediction it carries: the
// end-to-end metric(s) and workload(s) a change to it should move. On
// every other workload it should stay flat. "failed" is the run's
// failed-operation count.
type layerSpec struct {
	name, unit string
	moves      string
}

var perLayer = []layerSpec{
	{"serve.http_rtt_us", "us", "p50_ms@solve-verify,churn-sessions"},
	{"serve.handler_extra_us", "us", "p50_ms@solve-verify,churn-sessions"},
	{"serve.decode_us", "us", "p50_ms@solve-verify"},
	{"serve.render_us", "us", "p50_ms@solve-verify"},
	{"serve.solves_per_request", "count", "throughput_ops_s@solve-mix"},
	{"serve.worker_skew", "ratio", "throughput_ops_s@solve-mix"},
	{"serve.rejected_429", "count", "failed@solve-mix,solve-verify,churn-sessions,sweep-durable"},
	{"serve.timeouts", "count", "failed@solve-mix,solve-verify,churn-sessions,sweep-durable"},
	{"serve.server_errors", "count", "failed@solve-mix,solve-verify,churn-sessions,sweep-durable"},

	{"instance.generate_us", "us", "p50_ms@solve-mix"},
	{"bounds.lower_bound_us", "us", "p50_ms@solve-mix"},

	{"heuristics.precheck_us", "us", "p50_ms,tail_ms,throughput_ops_s@solve-mix"},
	{"heuristics.place_us", "us", "p50_ms,tail_ms,throughput_ops_s@solve-mix"},
	{"heuristics.place_us.Random", "us", "p50_ms,tail_ms,throughput_ops_s@solve-mix"},
	{"heuristics.place_us.Comp-Greedy", "us", "p50_ms,tail_ms,throughput_ops_s@solve-mix"},
	{"heuristics.place_us.Comm-Greedy", "us", "p50_ms,tail_ms,throughput_ops_s@solve-mix"},
	{"heuristics.place_us.Subtree-bottom-up", "us", "p50_ms,tail_ms,throughput_ops_s@solve-mix"},
	{"heuristics.place_us.Object-Grouping", "us", "p50_ms,tail_ms,throughput_ops_s@solve-mix"},
	{"heuristics.place_us.Object-Availability", "us", "p50_ms,tail_ms,throughput_ops_s@solve-mix"},
	{"heuristics.select_us", "us", "p50_ms,tail_ms,throughput_ops_s@solve-mix"},
	{"heuristics.downgrade_us", "us", "p50_ms,tail_ms,throughput_ops_s@solve-mix"},
	{"heuristics.precheck_reject_frac", "ratio", "p50_ms,throughput_ops_s@solve-mix"},
	{"heuristics.feasible_frac", "ratio", "p50_ms,throughput_ops_s@solve-mix"},

	{"mapping.validate_us", "us", "p50_ms@solve-mix"},
	{"mapping.validate_share", "ratio", "p50_ms@solve-mix"},

	{"stream.simulate_us", "us", "p50_ms,throughput_ops_s@solve-verify"},
	{"stream.analytic_us", "us", "p50_ms,throughput_ops_s@solve-verify"},
	{"stream.events_per_sim", "count", "p50_ms,throughput_ops_s@solve-verify"},

	{"churn.step_us.repaired", "us", "p50_ms@churn-sessions"},
	{"multiapp.combine_us", "us", "p50_ms@churn-sessions"},
	{"refine.improve_us", "us", "p50_ms@churn-sessions"},
	{"churn.step_us.resolved", "us", "tail_ms@churn-sessions"},
	{"churn.step_us.rejected", "us", "tail_ms@churn-sessions"},
	{"churn.resolve_us", "us", "tail_ms@churn-sessions"},
	{"churn.create_ms", "ms", "setup_s@churn-sessions"},
	{"churn.repaired_frac", "ratio", "p50_ms,tail_ms@churn-sessions"},
	{"churn.resolved_frac", "ratio", "p50_ms,tail_ms@churn-sessions"},
	{"churn.rejected_frac", "ratio", "p50_ms,tail_ms@churn-sessions"},
	{"churn.moved_per_event", "count", "p50_ms@churn-sessions"},

	{"coord.submit_us", "us", "p50_ms,tail_ms,throughput_ops_s@sweep-durable"},
	{"coord.claim_us", "us", "p50_ms,tail_ms,throughput_ops_s@sweep-durable"},
	{"coord.complete_us", "us", "p50_ms,tail_ms,throughput_ops_s@sweep-durable"},
	{"coord.journal_us", "us", "p50_ms,tail_ms,throughput_ops_s@sweep-durable"},
	{"coord.merge_ms", "ms", "p50_ms,tail_ms,throughput_ops_s@sweep-durable"},
	{"coord.idle_ms", "ms", "p50_ms,tail_ms,throughput_ops_s@sweep-durable"},
	{"coord.releases", "count", "p50_ms,tail_ms@sweep-durable"},
	{"coord.duplicates", "count", "p50_ms,tail_ms@sweep-durable"},
	{"coord.journal_appends_per_job", "count", "p50_ms,throughput_ops_s@sweep-durable"},
	{"coord.journal_syncs_per_job", "count", "p50_ms,throughput_ops_s@sweep-durable"},
	{"coord.snapshots_per_job", "count", "p50_ms,throughput_ops_s@sweep-durable"},
	{"experiments.shard_ms", "ms", "p50_ms,tail_ms,throughput_ops_s@sweep-durable"},
	{"experiments.encode_us", "us", "p50_ms,throughput_ops_s@sweep-durable"},
	{"experiments.merge_ms", "ms", "p50_ms,tail_ms@sweep-durable"},

	{"proc.server_cpu_us_per_op", "us", "throughput_ops_s@solve-mix,solve-verify,churn-sessions"},
	{"proc.worker_cpu_us_per_job", "us", "throughput_ops_s@sweep-durable"},
	{"gen.late_p99_ms", "ms", "p50_ms,tail_ms@solve-mix"},
	{"gen.cpu_frac", "ratio", "throughput_ops_s@solve-mix,solve-verify,churn-sessions,sweep-durable"},
}
