package main

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// its order; a run refuses to print a result that misses one of them.
var endToEnd = []string{
	"assign_p50_ms", "objs_s", "fit_s", "setup_s", "peak_rss_mb",
}

var perLayer = []string{
	"vec.dot_block_ns_row", "vec.sqdist_block_ns_row", "vec.sqnorm_block_ns_row",
	"vec.dot_rows_ns_row", "vec.sqdist_rows_ns_row", "vec.argmin_row_ns", "vec.bytes_row",

	"core.assigner_pass_ns_obj", "core.assigner_pruned_frac",
	"core.reloc_pass_ns_obj", "core.reloc_pruned_frac", "core.refresh_ns_obj",

	"fit.ucpc.iterations", "fit.ucpc.scanned", "fit.ucpc.pruned_frac", "fit.ucpc.online_s", "fit.ucpc.offline_s",
	"fit.ucpc_lloyd.iterations", "fit.ucpc_lloyd.scanned", "fit.ucpc_lloyd.pruned_frac", "fit.ucpc_lloyd.online_s", "fit.ucpc_lloyd.offline_s",
	"fit.ukm.iterations", "fit.ukm.scanned", "fit.ukm.pruned_frac", "fit.ukm.online_s", "fit.ukm.offline_s",
	"fit.mmv.iterations", "fit.mmv.scanned", "fit.mmv.pruned_frac", "fit.mmv.online_s", "fit.mmv.offline_s",
	"fit.ukmed.iterations", "fit.ukmed.scanned", "fit.ukmed.pruned_frac", "fit.ukmed.online_s", "fit.ukmed.offline_s",

	"datasets.parse_ns_tok_n", "datasets.parse_ns_tok_u", "datasets.parse_ns_tok_e",
	"uncertain.new_object_ns_obj_n", "uncertain.new_object_ns_obj_u", "uncertain.new_object_ns_obj_e",
	"uncertain.moments_of_ns_obj",

	"model.assign_ns_obj", "model.assign_allocs_call", "model.load_us",

	"stream.observe_ns_obj", "stream.snapshot_us",

	"serve.decode_ns_obj", "serve.body_bytes_obj", "serve.encode_us_req", "serve.residual_ms",
	"serve.hist_p99_ms", "serve.admit_ratio", "serve.shed_429", "serve.shed_413", "serve.shed_cpu_us_req",
	"serve.observe_429", "serve.queue_depth_max", "serve.swap_ms",

	"trace.http_ms", "trace.decode_ms", "trace.parse_ms", "trace.new_object_ms", "trace.assign_ms",
	"trace.encode_ms", "trace.requests", "trace.overhead_ms",

	"gen.assign_p99_ms", "gen.late_ms_p99", "runtime.gc_cycles", "runtime.alloc_bytes",
}
