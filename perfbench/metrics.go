package main

// metricDef names one reported metric. The lists below are the
// benchmark's contract; BENCHMARK.json at the repository root repeats
// them and a test keeps the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"sim_ns_per_s", "sim-ns/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"sim_p50_us", "sim-us", "lower"},
	{"sim_p99_us", "sim-us", "lower"},
	{"sim_p999_us", "sim-us", "lower"},
	{"goodput_pct", "%", "higher"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Run-phase counts, from the public counters of the first rep.
		{"sim.events_per_op", "count/op", "lower"},
		{"ht.pkts_per_op", "count/op", "lower"},
		{"ht.bytes_per_op", "B/op", "lower"},
		{"nb.from_links_per_op", "count/op", "lower"},
		{"ht.credit_stalls", "count", "lower"},
		{"msg.fc_stalls", "count", "lower"},
		{"msg.wrap_frames", "count", "lower"},
		{"serve.local_pct", "%", "higher"},
		{"serve.shed", "count", "lower"},
		{"serve.timeouts", "count", "lower"},
		{"nb.master_aborts", "count", "lower"},
		{"fail_pct", "%", "lower"},
		// Host cost of the run phase.
		{"sim.ns_per_event", "ns", "lower"},
		{"runtime.allocs_per_op", "count/op", "lower"},
		{"runtime.gc_cycles", "count/rep", "lower"},
		{"trace_overhead_pct", "%", "lower"},
		// Simulated-time phases from the simulation profiler.
		{"ht.queue_ns_mean", "sim-ns", "lower"},
		{"ht.ser_ns_mean", "sim-ns", "lower"},
		{"nb.xbar_ns_mean", "sim-ns", "lower"},
		{"nb.mem_ns_mean", "sim-ns", "lower"},
		{"cpu.wcflush_ns_mean", "sim-ns", "lower"},
		{"msg.poll_per_op", "sim-ns/op", "lower"},
		{"serve.request_ns_mean", "sim-ns", "lower"},
		// Parallel executor accounting.
		{"core.windows", "count/rep", "lower"},
		{"core.occupancy", "ratio", "higher"},
		{"core.imbalance", "ratio", "lower"},
		{"core.serial_ms", "ms/rep", "lower"},
		{"core.cut_links", "count", "lower"},
	}
	// Host-time shares from the CPU profile, run phase then set-up.
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".host_pct", "%", "lower"})
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".setup_pct", "%", "lower"})
	}
	return defs
}()
