package main

// metricDef declares one metric the benchmark reports. BENCHMARK.json at
// the repository root declares the same lists; TestBenchmarkJSONMatches
// keeps the two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Simulated marks a per-layer metric derived from the simulator's
	// virtual-time results: on the replay workloads it is a pure function
	// of the seed, so two runs must agree on it exactly.
	Simulated bool
}

// endToEnd are the metrics a user of the simulator sees, reported by an
// untraced run of every workload. What an "operation" and a unit of
// "work" are differs per workload; see workloadDef.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// artifactIDs are the suite's artifacts in the order Suite.All renders
// them; each has an experiments.<id>_share per-layer metric.
var artifactIDs = []string{
	"Table 1", "Table 3", "Figure 5", "Figure 8", "Table 5", "Table 6",
	"Figure 11", "Figure 12", "Figure 13", "Figure 14", "Figure 15", "Figure 16",
	"Figure 17", "Figure 18", "Timing 1", "Timing 2", "Fault", "Fleet",
}

// cpuBuckets are the host-time buckets of the traced run's CPU profile:
// simulator packages by leaf frame, plus sync, allocation, GC, the rest of
// the Go runtime, and everything else.
var cpuBuckets = []string{
	"core", "mee", "cache", "ftl", "flash", "dram", "sim", "sched", "tee", "trivium",
	"experiments", "sync", "alloc", "gc", "runtime", "other",
}

// perLayer are the metrics of single layers, reported by a traced run.
// Every workload reports all of them; a layer the workload does not
// exercise reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, b := range cpuBuckets {
		out = append(out, metricDef{Name: "cpu." + b, Unit: "%", Better: "lower"})
	}
	sim := func(name, unit, better string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Simulated: true}
	}
	out = append(out,
		sim("mee.enc_overhead", "%", "lower"),
		sim("mee.ver_overhead", "%", "lower"),
		sim("ftl.write_amp", "ratio", "lower"),
		sim("ftl.gc_erases", "count", "lower"),
		sim("ftl.read_retries", "count", "lower"),
		sim("ftl.bad_blocks", "count", "lower"),
		sim("fault.retries", "count", "lower"),
		sim("fault.breaker_trips", "count", "lower"),
		sim("fault.die_death_completed", "count", "higher"),
		sim("sim.load_share", "%", "lower"),
		sim("sim.compute_share", "%", "lower"),
		sim("sim.security_share", "%", "lower"),
		sim("sim.tee_share", "%", "lower"),
		sim("sim.queue_share", "%", "lower"),
		sim("cmt.miss_rate", "%", "lower"),
		sim("dram.page_hit_rate", "%", "higher"),
		sim("experiments.paper_gap_pct", "%", "lower"),
		sim("experiments.memo_hit_rate", "%", "higher"),
		metricDef{Name: "core.setup_share", Unit: "%", Better: "lower"},
		metricDef{Name: "core.pool_hit_rate", Unit: "%", Better: "higher"},
	)
	for _, id := range artifactIDs {
		out = append(out, metricDef{Name: artifactMetric(id) + "_share", Unit: "%", Better: "lower"})
	}
	out = append(out,
		metricDef{Name: "latency_tail_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "go.peak_rss_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "sched.wait_share", Unit: "%", Better: "lower"},
		metricDef{Name: "tee.create_share", Unit: "%", Better: "lower"},
		metricDef{Name: "tee.read_share", Unit: "%", Better: "lower"},
		metricDef{Name: "tee.write_share", Unit: "%", Better: "lower"},
		metricDef{Name: "tee.finish_share", Unit: "%", Better: "lower"},
		metricDef{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "gen.late_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	)
	return out
}()

// lookupMetric finds a declared metric by name.
func lookupMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
