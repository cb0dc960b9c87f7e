package main

// metric describes one reported metric. For a per-layer metric, Moves names
// the end-to-end metric a change to its layer should move and On the
// workloads where it should; BENCHMARK.json mirrors the names, units and
// directions (TestCatalogMatchesBenchmarkJSON).
type metric struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
	Moves, On          string  // per-layer only
}

// endToEndCatalog lists the untraced, host-measured metrics every workload
// reports. success_ratio is 1 - failed/attempted (a ratio that is never 0).
func endToEndCatalog() []metric {
	return []metric{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "rps", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "success_ratio", Unit: "ratio", Better: "higher", Bound: 0.01},
		{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	}
}

// perLayerCatalog lists the traced run's metrics, grouped by layer. A
// metric of a layer a workload does not exercise reads 0 there.
func perLayerCatalog() []metric {
	const cf, cfs, srv = "colo, fleet", "colo, fleet, serve", "serve"
	return []metric{
		{Name: "profiler.profile_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: cf},

		{Name: "sim.kernels", Unit: "count", Better: "lower", Moves: "rps", On: "colo"},
		{Name: "sim.cpu_share", Unit: "ratio", Better: "lower", Moves: "rps", On: cf},
		{Name: "sim.ns_per_kernel", Unit: "ns", Better: "lower", Moves: "rps", On: "colo"},

		{Name: "core.squads", Unit: "count", Better: "lower", Moves: "rps", On: "colo"},
		{Name: "core.configs_per_squad", Unit: "count", Better: "lower", Moves: "rps", On: "colo"},
		{Name: "core.kernels_per_squad", Unit: "count", Better: "higher", Moves: "rps", On: "colo"},
		{Name: "core.cpu_share", Unit: "ratio", Better: "lower", Moves: "rps", On: cf},
		{Name: "core.determine_us_p50", Unit: "us", Better: "lower", Moves: "rps", On: "colo"},
		{Name: "core.determine_us_p99", Unit: "us", Better: "lower", Moves: "rps", On: "colo"},
		{Name: "core.vlat_vs_iso", Unit: "ratio", Better: "lower", Moves: "none (sentinel)", On: "colo"},

		{Name: "runtime.session_ms_p50", Unit: "ms", Better: "lower", Moves: "rps", On: "colo"},
		{Name: "runtime.session_ms_p99", Unit: "ms", Better: "lower", Moves: "rps", On: "colo"},

		{Name: "go.alloc_kb_per_req", Unit: "KB", Better: "lower", Moves: "rps, rss_mb", On: cfs},
		{Name: "go.gc_cpu_share", Unit: "ratio", Better: "lower", Moves: "rps, rss_mb", On: cfs},

		{Name: "fleet.cpu_share", Unit: "ratio", Better: "lower", Moves: "rps", On: "fleet"},
		{Name: "fleet.routed", Unit: "count", Better: "higher", Moves: "rps", On: "fleet"},
		{Name: "fleet.migrations", Unit: "count", Better: "lower", Moves: "rps", On: "fleet"},
		{Name: "fleet.epochs", Unit: "count", Better: "lower", Moves: "rps", On: "fleet"},
		{Name: "fleet.scenario_ms_p50", Unit: "ms", Better: "lower", Moves: "rps", On: "fleet"},
		{Name: "fleet.shard_speedup", Unit: "x", Better: "higher", Moves: "rps", On: "fleet"},
		{Name: "cluster.run_ms", Unit: "ms", Better: "lower", Moves: "rps", On: "fleet"},

		{Name: "invariant.overhead_x", Unit: "x", Better: "lower", Moves: "none (CI turnaround)", On: cf},

		{Name: "obs.events", Unit: "count", Better: "lower", Moves: "none", On: "colo"},
		{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower", Moves: "none (stays ~0)", On: cfs},

		{Name: "serve.open_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: srv},
		{Name: "serve.transport_us_p50", Unit: "us", Better: "lower", Moves: "rps, lat_p50_ms, lat_p99_ms", On: srv},
		{Name: "serve.intake_us_p50", Unit: "us", Better: "lower", Moves: "rps, lat_p50_ms, lat_p99_ms", On: srv},
		{Name: "serve.decision_ns", Unit: "ns", Better: "lower", Moves: "rps", On: srv},
		{Name: "serve.decide_ns", Unit: "ns", Better: "lower", Moves: "rps", On: srv},
		{Name: "serve.batch_mean", Unit: "count", Better: "higher", Moves: "rps", On: srv},
		{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower", Moves: "none (exact)", On: srv},
		{Name: "serve.gen_late_ms_p99", Unit: "ms", Better: "lower", Moves: "lat_p99_ms", On: srv},
		{Name: "serve.cpu_share.planner", Unit: "ratio", Better: "lower", Moves: "rps, lat_p99_ms", On: srv},
		{Name: "serve.cpu_share.rpc", Unit: "ratio", Better: "lower", Moves: "rps, lat_p99_ms", On: srv},
		{Name: "serve.cpu_share.sched", Unit: "ratio", Better: "lower", Moves: "rps", On: srv},
	}
}
