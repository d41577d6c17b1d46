package main

// The metric tables below are the benchmark's contract: BENCHMARK.json
// lists the same names, units, directions and bounds (names_test.go
// checks), and every run emits exactly these names.

type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression; per-layer
	// metrics have none.
	bound float64
}

// endToEnd are what a user of the system sees, the same on every
// workload. Each value is a median over one run's timed repetitions.
var endToEnd = []metricDef{
	// Requests of one repetition / wall time of its timed window.
	{"reqs_per_s", "1/s", "higher", 0.25},
	// getrusage user+sys over the timed window / requests; on svc-live
	// this includes the generator (bench.cpu_ns_per_req says how much).
	{"cpu_us_per_req", "us", "lower", 0.25},
	// VmHWM at exit.
	{"peak_rss_mb", "MB", "lower", 0.10},
	// Time from process start to the first timed window: start-up and
	// input generation, one repetition's own set-up and checks (median
	// over the repetitions), and the warm-up repetition.
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics. Where a workload has no such
// layer, or cannot see it from outside, the value is 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better})
		}
	}
	// Owner cut of the CPU profile: each sample is charged to the
	// innermost ngdc/internal/<pkg> frame on its stack. The sixteen sum
	// to the traced repetitions' cpu_us_per_req.
	for _, p := range ownerPkgs {
		add("ns", "lower", p+".cpu_ns_per_req")
	}
	add("ns", "lower", "services.cpu_ns_per_req", "goruntime.cpu_ns_per_req", "bench.cpu_ns_per_req")
	// Leaf cut of the same profile.
	add("ns", "lower", "leaf.sched_ns_per_req", "leaf.mem_ns_per_req", "leaf.map_ns_per_req", "leaf.syscall_ns_per_req")

	// Counts from public results.
	add("count", "lower", "sim.events_per_req")
	add("ns", "lower", "sim.host_ns_per_event")
	add("count", "lower", "sim.procs_spawned_per_kreq", "sim.max_event_queue")
	add("ratio", "lower", "sim.multi_p_slowdown")
	add("count", "lower", "verbs.ops_per_req")
	add("B", "lower", "verbs.bytes_per_req")
	add("count", "lower", "verbs.conn_establishes_per_kreq", "verbs.conn_evictions_per_kreq",
		"verbs.ud_ops_per_req", "verbs.conn_cache_misses_per_kreq")
	add("B", "lower", "verbs.conn_bytes_per_node")
	add("us", "lower", "fabric.wire_us_per_req", "fabric.hostcpu_us_per_req") // virtual time
	add("count", "lower", "sockets.stalls_per_kreq")
	add("ratio", "higher", "coopcache.hit_frac", "coopcache.spill_hit_frac")
	add("count", "lower", "coopcache.evictions_per_kreq", "coopcache.invalidations_per_kreq",
		"coopcache.stale_reads_per_kreq", "coopcache.rollbacks_per_kreq", "coopcache.spill_drops_per_kreq")
	add("ratio", "lower", "coopcache.dir_max_over_mean")
	add("count", "lower", "coopcache.dir_moves")
	add("1/s", "higher", "model.virt_reqs_per_s") // virtual time
	add("us", "lower", "model.virt_p50_us", "model.virt_p99_us")
	add("count", "higher", "model.digest_match")
	add("us", "lower", "serve.batch_rtt_p50_us", "serve.batch_rtt_p99_us")
	add("count", "lower", "goruntime.allocs_per_req")
	add("B", "lower", "goruntime.alloc_bytes_per_req")
	add("count", "lower", "goruntime.gc_cycles_per_mreq")
	add("us", "lower", "goruntime.gc_pause_us_per_kreq")
	add("ms", "lower", "setup.build_ms")
	add("ratio", "lower", "trace.overhead_frac")
	add("ratio", "lower", "fail_frac")

	// Layer drives: wall ns per operation of an isolated loop.
	for _, d := range drives {
		add("ns", "lower", d.metric)
	}
	return defs
}()
