package main

// metricSpec names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics with the same units, directions and bounds
// (vbench_test.go checks that the two agree).
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd is what a user of the simulator sees, from untraced runs.
// A "pass" runs every op of the workload once; wall_s and cpu_s sum each
// op's median over the passes of one run.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
	{"events_per_s", "1/s", "higher", 0.25},
}

// perLayer comes from the traced run. Every workload reports every metric;
// a layer the workload bypasses reads 0.
var perLayer = []metricSpec{
	{"experiments.fig12.wall_s", "s", "lower", 0},
	{"experiments.fig13.wall_s", "s", "lower", 0},
	{"experiments.fig15.wall_s", "s", "lower", 0},
	{"experiments.fig18.wall_s", "s", "lower", 0},
	{"experiments.fig19.wall_s", "s", "lower", 0},
	{"experiments.other.wall_s", "s", "lower", 0},
	{"experiments.fig12.events", "count", "lower", 0},
	{"experiments.fig13.events", "count", "lower", 0},
	{"experiments.fig15.events", "count", "lower", 0},
	{"experiments.fig18.events", "count", "lower", 0},
	{"experiments.fig19.events", "count", "lower", 0},
	{"experiments.other.events", "count", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.hold_ns_per_event", "ns", "lower", 0},
	{"host.stack_ns_per_simsec", "ns/sim-s", "lower", 0},
	{"host.self_ns_per_simsec", "ns/sim-s", "lower", 0},
	{"host.events_per_simsec", "1/sim-s", "lower", 0},
	{"guest.stack_ns_per_simsec", "ns/sim-s", "lower", 0},
	{"guest.self_ns_per_simsec", "ns/sim-s", "lower", 0},
	{"guest.events_per_simsec", "1/sim-s", "lower", 0},
	{"core.stack_ns_per_simsec", "ns/sim-s", "lower", 0},
	{"core.self_ns_per_simsec", "ns/sim-s", "lower", 0},
	{"core.events_per_simsec", "1/sim-s", "lower", 0},
	{"vtrace.stack_ns_per_simsec", "ns/sim-s", "lower", 0},
	{"vtrace.self_ns_per_simsec", "ns/sim-s", "lower", 0},
	{"vtrace.events_per_simsec", "1/sim-s", "lower", 0},
	{"runtime.allocs_per_event", "count", "lower", 0},
	{"runtime.alloc_bytes_per_event", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"cloudgen.generate_s", "s", "lower", 0},
	{"faults.generate_s", "s", "lower", 0},
	{"fleet.macro.first-fit.run_s", "s", "lower", 0},
	{"fleet.macro.least-loaded.run_s", "s", "lower", 0},
	{"fleet.macro.steal-aware.run_s", "s", "lower", 0},
	{"fleet.macro.ns_per_host_epoch", "ns", "lower", 0},
	{"fleet.macro.ns_per_work_unit", "ns", "lower", 0},
	{"fleet.macro.work_units", "count", "lower", 0},
	{"fleet.macro.placed", "count", "higher", 0},
	{"fleet.macro.rejected", "count", "lower", 0},
	{"fleet.macro.restarts", "count", "lower", 0},
	{"fleet.macro.evacuations", "count", "lower", 0},
	{"fleet.macro.evac_failures", "count", "lower", 0},
	{"fleet.macro.lost", "count", "lower", 0},
	{"fleet.index.place_ns_p50", "ns", "lower", 0},
	{"fleet.index.place_ns_p99", "ns", "lower", 0},
	{"fleet.index.update_ns_p50", "ns", "lower", 0},
	{"fleet.index.samples", "count", "higher", 0},
	{"telemetry.points", "count", "lower", 0},
	{"telemetry.bytes", "B", "lower", 0},
	{"fleet.micro.cfs.bare.run_s", "s", "lower", 0},
	{"fleet.micro.cfs.observed.run_s", "s", "lower", 0},
	{"fleet.micro.vsched.bare.run_s", "s", "lower", 0},
	{"fleet.micro.vsched.observed.run_s", "s", "lower", 0},
	{"fleet.micro.cfs.obs_overhead_frac", "ratio", "lower", 0},
	{"fleet.micro.vsched.obs_overhead_frac", "ratio", "lower", 0},
	{"fleet.micro.migrations", "count", "lower", 0},
	{"fleet.micro.restarts", "count", "lower", 0},
	{"fleet.micro.evacuations", "count", "lower", 0},
	{"fleet.micro.lost", "count", "lower", 0},
	{"vtrace.events", "count", "lower", 0},
	{"vtrace.dropped", "count", "lower", 0},
	{"latprof.observe_ns_p50", "ns", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}

func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}
