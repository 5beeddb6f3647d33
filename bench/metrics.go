package main

// metricDef is one metric the benchmark prints; BENCHMARK.json declares the
// same names and units (bench_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the timed pass's metrics. An op is one simulated halo
// exchange on the simulation workloads and one job on serve-mixed.
var endToEnd = []metricDef{
	{"op_wall_ms_p50", "ms"}, // median wall time of one op
	{"ops_per_s", "1/s"},     // ops completed per second of the measured window
	{"setup_s", "s"},         // median set-up time: exchange.New / stencil.New+Fill / recovery serve.Open
	{"peak_rss_mb", "MB"},    // peak resident set of the process
}

// perLayer are the traced pass's metrics. A workload that does not reach a
// layer reports 0 for it.
var perLayer = append([]metricDef{
	{"flownet.rebalances_per_exchange", "count"},
	{"flownet.links_per_rebalance", "count"},
	{"flownet.flows_per_rebalance", "count"},
	{"flownet.us_per_rebalance", "us"},
	{"sim.events_per_exchange", "count"},
	{"sim.procs_per_exchange", "count"},
	{"sim.peak_queue", "count"},
	{"sim.ns_per_event", "ns"},
	{"cudart.ops_per_exchange", "count"},
	{"cudart.bytes_per_exchange", "B"},
	{"cudart.ns_per_op", "ns"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"halo.pack_gbps", "GB/s"},
	{"halo.unpack_gbps", "GB/s"},
	{"halo.checksum_gbps", "GB/s"},
	{"mpi.envelopes_per_exchange", "count"},
	{"mpi.retransmits", "count"},
	{"part.new_hier_ms", "ms"},
	{"exchange.setup_placement_ms", "ms"},
	{"exchange.setup_plan_ms", "ms"},
	{"exchange.plans", "count"},
	{"jobspec.hash_us", "us"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.warm_latency_ms_p50", "ms"},
	{"serve.cold_latency_ms_p50", "ms"},
	{"serve.http_overhead_ms_p50", "ms"},
	{"serve.job_latency_ms_p99", "ms"},
	{"serve.result_hit_ratio", "ratio"},
	{"serve.setup_hit_ratio", "ratio"},
	{"serve.journal_syncs_per_job", "count"},
	{"serve.journal_records_per_job", "count"},
	{"serve.recover_us_per_record", "us"},
	{"trace.overhead_ratio", "ratio"},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	defs := make([]metricDef, len(cpuLayers))
	for i, l := range cpuLayers {
		defs[i] = metricDef{l + ".cpu_share", "ratio"}
	}
	return defs
}
