package main

import "busprefetch/internal/experiments"

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
func perLayer() [][2]string {
	out := [][2]string{
		{"workload.generate_ms", "ms"},
		{"workload.events_per_s", "1/s"},
		{"trace.sharing_ms", "ms"},
		{"prefetch.annotate_ms", "ms"},
		{"prefetch.events_added", "count"},
		{"sim.simulate_ms", "ms"},
		{"sim.events_per_s", "1/s"},
		{"sim.events", "count"},
		{"sim.bus_ops", "count"},
	}
	for _, c := range cellsMix(1, 1) {
		out = append(out, [2]string{"sim.simulate_ms." + c.label, "ms"})
	}
	out = append(out,
		[2]string{"busprefetch.overlap_ratio", "ratio"},
		[2]string{"experiments.prewarm_s", "s"},
		[2]string{"experiments.render_s", "s"},
	)
	for _, s := range experiments.SectionNames() {
		out = append(out, [2]string{"experiments.section." + s + "_s", "s"})
	}
	return append(out,
		[2]string{"runner.pool_tasks", "count"},
		[2]string{"runner.pool_busy_ratio", "ratio"},
		[2]string{"runner.cell_p50_ms", "ms"},
		[2]string{"runner.cell_p90_ms", "ms"},
		[2]string{"runner.tracecache_hits", "count"},
		[2]string{"runner.tracecache_misses", "count"},
		[2]string{"runner.resultstore_hit_ratio", "ratio"},
		[2]string{"runner.checkpoint_puts", "count"},
		[2]string{"server.admit_ms", "ms"},
		[2]string{"server.queue_wait_ms.cached.p50", "ms"},
		[2]string{"server.queue_wait_ms.cached.tail", "ms"},
		[2]string{"server.queue_wait_ms.cold", "ms"},
		[2]string{"server.service_ms.cold", "ms"},
		[2]string{"server.rejected", "count"},
		[2]string{"bench.gen_lag_ms", "ms"},
		[2]string{"bench.trace_overhead_ratio", "ratio"},
	)
}
