package main

// metricDef names one metric the benchmark reports. BENCHMARK.json lists the
// same names, units and directions (and, for end-to-end metrics, the bound);
// the smoke test holds the two together.
type metricDef struct {
	name   string
	unit   string
	higher bool // true when a higher value is better
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them:
//
//   - setup_s: set-up before the first unit of work — scenario.Build +
//     core.New for the solver (for ranks, RunParallel up to the moment the
//     engine starts stepping); spawn -> /readyz 200 for the daemons. Median
//     of the repetitions.
//   - points_per_s: grid-point updates computed per second of the timed
//     section — the Run call(s) for the solver, first POST -> last result
//     byte for the job mix (cache hits compute nothing and add no points).
//     Best repetition.
//   - latency_ms_p50: median latency of the workload's operation — one time
//     step as a progress observer sees it (solver), one cache-miss job from
//     POST sent to result body read (job mix). Best repetition's median.
//     There is no tail percentile: a repetition holds 6 steps of the large
//     grid or 18 cache-miss jobs, so nothing above the median has ten samples
//     beyond it (the job mix's p90 is a per-layer metric).
//   - peak_rss_mb: ru_maxrss of the process doing the work — the benchmark
//     process for the solver, the quaked child for the job mix (median of
//     the repetitions' daemons).
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"points_per_s", "points/s", true},
	{"latency_ms_p50", "ms", false},
	{"peak_rss_mb", "MB", false},
}

// stageShares are the pipeline stages whose share of the in-program stage
// clock the traced pass reports for the traced workload.
var stageShares = []string{"velocity", "stress", "plasticity", "attenuation", "sponge",
	"free_surface", "divergence", "record", "checkpoint"}

// perLayer are the metrics of single layers, reported by the traced pass.
// The trace.* and core.stage_share.* values come from the traced workload
// itself; everything else from the direct layer probes (probes.go).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_share", "ratio", false},
		{"trace.span_coverage", "ratio", true},
	}
	for _, st := range stageShares {
		defs = append(defs, metricDef{"core.stage_share." + st, "ratio", false})
	}
	for _, size := range []string{".small", ".large"} {
		defs = append(defs,
			metricDef{"fd.velocity_ns_per_point" + size, "ns/point", false},
			metricDef{"fd.stress_ns_per_point" + size, "ns/point", false},
			metricDef{"fd.sponge_ns_per_point" + size, "ns/point", false},
			metricDef{"fd.attenuation_ns_per_point" + size, "ns/point", false},
			metricDef{"fd.free_surface_ns_per_col" + size, "ns/col", false},
			metricDef{"core.step_ms_p50" + size, "ms", false},
			metricDef{"core.self_ms_per_step" + size, "ms", false},
		)
	}
	return append(defs, []metricDef{
		{"core.step_ms_p90.small", "ms", false},
		{"fd.velocity_computed_gbps.large", "GB/s", true},
		{"fd.stress_computed_gbps.large", "GB/s", true},
		{"fd.stress_bw_share.large", "ratio", true},
		{"host.triad_gbps", "GB/s", true},
		{"plasticity.apply_ns_per_point.large", "ns/point", false},
		{"plasticity.yielded_share", "ratio", false},
		{"core.flops_per_point_step", "flop/point", false},
		{"core.points_per_s.small", "points/s", true},
		{"core.points_per_s.scaling", "points/s", true},
		{"core.ranks_speedup", "ratio", true},
		{"core.tiles_speedup", "ratio", true},
		{"core.tiles_speedup.small", "ratio", true},
		{"model.sample_s.large", "s", false},
		{"scenario.build_ms", "ms", false},
		{"scenario.build_het_ms", "ms", false},
		{"mpi.halo_bytes_per_step", "B", false},
		{"mpi.halo_wait_share", "ratio", false},
		{"mpi.crc_gbps", "GB/s", true},
		{"decomp.imbalance", "ratio", false},
		{"checkpoint.restart_points_per_s", "points/s", true},
		{"checkpoint.save_mb_per_s", "MB/s", true},
		{"checkpoint.load_mb_per_s", "MB/s", true},
		{"checkpoint.bytes_per_dump", "B", false},
		{"lz4.ratio", "ratio", true},
		{"lz4.compress_mb_per_s", "MB/s", true},
		{"lz4.decompress_mb_per_s", "MB/s", true},
		{"atomicio.write_fsync_ms_p50", "ms", false},
		{"service.submit_ms_p50", "ms", false},
		{"service.submit_cached_ms_p50", "ms", false},
		{"service.queue_wait_ms_p50", "ms", false},
		{"service.run_ms_p50.durable", "ms", false},
		{"service.run_ms_p50.volatile", "ms", false},
		{"service.result_ms_p50", "ms", false},
		{"service.journal_events_per_job", "count", false},
		{"service.checkpoints_per_job", "count", false},
		{"service.cache_hit_share", "ratio", true},
		{"service.configkey_us", "us", false},
		{"admission.estimate_cost_us", "us", false},
		{"quaked.post_ms_p50", "ms", false},
		{"quaked.status_ms_p50", "ms", false},
		{"quaked.result_ms_p50", "ms", false},
		{"quaked.result_bytes", "B", false},
		{"quaked.cache_hit_ms_p50", "ms", false},
		{"quaked.polls_per_job", "count", false},
		{"quaked.job_latency_ms_p90", "ms", false},
		{"ensemble.create_ms", "ms", false},
		{"ensemble.aggregate_get_ms", "ms", false},
		{"ensemble.aggregate_bytes", "B", false},
		{"ensemble.member_overhead_share", "ratio", false},
		{"ensemble.members_per_s", "members/s", true},
		{"seismo.fold_us_per_member", "us", false},
		{"seismo.percentile_ms", "ms", false},
	}...)
}()
