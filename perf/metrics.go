package main

import "sort"

// metricDef names one reported metric. The lists below are the single
// source of names in the code; perf_test.go holds them against
// BENCHMARK.json so the two cannot drift.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. fail_frac is reported beside them (and as the result line's
// attempted/failed keys) but is not a bounded metric: it is 0 on every
// healthy run, and a share of a zero median bounds nothing.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_mcps", "Mcycles/s"},
	{"allocs", "count"},
	{"alloc_mb", "MB"},
	{"sim_cycles", "cycles"},
	{"setup_s", "s"},
}

// perLayer are the traced-pass metrics; the prefix is the package (layer)
// the number belongs to. A metric that a workload cannot measure from
// outside (stage times under the harness, say) reads 0 there.
var perLayer = []metricDef{
	{"kernels.prepare_ms", "ms"},
	{"kernels.build_ms", "ms"},
	{"kernels.apply_ms", "ms"},
	{"kernels.check_ms", "ms"},
	{"prog.assemble_ms", "ms"},
	{"prog.instrs", "count"},
	{"cpu.lower_ms", "ms"},

	{"machine.new_ms", "ms"},
	{"machine.new_share", "frac"},
	{"machine.run_ms", "ms"},
	{"machine.run_ns_per_tile_cycle", "ns"},
	{"machine.ns_per_tile_cycle_256", "ns"},
	{"machine.fast_forwards", "count"},
	{"machine.skipped_cycles", "cycles"},
	{"machine.stats_hash48", "hash"},

	{"sim.stage_mem_ms", "ms"},
	{"sim.stage_mesh_ms", "ms"},
	{"sim.stage_cores_ms", "ms"},
	{"sim.fastforward_ms", "ms"},
	{"sim.loop_other_ms", "ms"},
	{"sim.stage_mem_ticks", "count"},
	{"sim.stage_mesh_ticks", "count"},
	{"sim.stage_cores_ticks", "count"},
	{"sim.stage_mem_ns_per_tile_cycle", "ns"},
	{"sim.stage_mesh_ns_per_tile_cycle", "ns"},
	{"sim.stage_cores_ns_per_tile_cycle", "ns"},
	{"sim.workers2_x", "x"},

	{"cpu.instrs", "count"},
	{"cpu.issued_frac", "frac"},
	{"cpu.stall_frame_frac", "frac"},
	{"cpu.stall_inet_frac", "frac"},
	{"cpu.stall_backpressure_frac", "frac"},
	{"inet.forwards", "count"},
	{"mem.llc_accesses", "count"},
	{"mem.llc_miss_rate", "frac"},
	{"mem.llc_wide_reqs", "count"},
	{"mem.dram_busy_frac", "frac"},
	{"noc.flits", "count"},
	{"noc.hops", "count"},
	{"noc.hops_per_cycle", "hops/cycle"},

	{"harness.cells", "count"},
	{"harness.nonrun_ms", "ms"},
	{"harness.nonrun_share", "frac"},
	{"harness.j2_x", "x"},
	{"analyze.report_ms", "ms"},
	{"analyze.report_bytes", "bytes"},
	{"energy.evaluate_ms", "ms"},
	{"gpu.cells_ms", "ms"},

	{"observe.overhead_x", "x"},
	{"observe.allocs_per_kcycle", "1/kcycle"},
	{"trace.windows", "count"},
	{"trace.events", "count"},
	{"causal.build_report_ms", "ms"},

	{"fault.attempts", "count"},
	{"fault.total_cycles", "cycles"},
	{"fault.frame_replays", "count"},
	{"fault.ckpt_restarts", "count"},
	{"fault.full_restarts", "count"},
	{"fault.alloc_mb_per_attempt", "MB"},

	{"bench.passes", "count"},
	{"bench.pass_spread_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.raw_wall_s", "s"},
	{"bench.host_speed_x", "x"},
	{"bench.peak_rss_mb", "MB"},
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadFrac is the interquartile distance as a share of the median, with
// quartiles taken the way Python's statistics.quantiles(n=4) takes them
// (exclusive method), so the number matches what the driver computes.
func spreadFrac(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / med
}
