// Command ngdc-bench regenerates every table and figure of the paper's
// evaluation from the simulated framework. Each subcommand prints the
// same rows/series the corresponding figure reports; EXPERIMENTS.md
// records how the measured shapes compare with the paper. The generators
// themselves live in internal/experiments, where they are unit-tested.
//
// Usage:
//
//	ngdc-bench <experiment> [flags]
//
// Common flags: -seed N (default 1), -quick (shrunken sweeps),
// -parallel N (worker goroutines a sweep fans its independent cells
// across, default GOMAXPROCS; results are byte-identical for every N),
// -trace <file> (write the run's per-layer observability counters —
// verbs ops per device, NIC occupancy, fabric wire-vs-CPU time, socket
// flow-control stalls, engine totals — as JSONL records), and
// -faults <plan> (a deterministic fault plan injected into experiments
// that support one; e.g. "crash@700ms node=2; restart@1400ms node=2" —
// see internal/faults for the grammar. Replaying the same plan and seed
// reproduces the run byte-for-byte).
//
// A variant flag (-mode, -proxies, -measure, -rubis, -faults) that no
// experiment the subcommand runs reads exits 2 naming it; under all, the
// pinned variants override -mode and -proxies, so those exit 2 too.
//
// Profiling: -cpuprofile <file> and -memprofile <file> write pprof
// profiles covering the experiment run.
//
// Host performance is measured elsewhere: by the repository benchmark in
// benchmark/ (repeated, fingerprinted, digest-checked).
//
// Experiments:
//
//	ddss-latency        Fig 3a — DDSS put() latency per coherence model
//	storm               Fig 3b — STORM vs STORM-DDSS query time
//	lock-cascade        Fig 5  — lock cascading latency (-mode shared|exclusive)
//	coopcache           Fig 6  — data-center throughput (-proxies N)
//	monitor-accuracy    Fig 8a — monitoring accuracy under load
//	monitor-throughput  Fig 8b — LB throughput improvement per Zipf alpha (-rubis)
//	sdp                 §3     — SDP family bandwidth (AZ-SDP)
//	flowcontrol         §6     — packetized vs credit-based flow control
//	reconfig            §6     — history-aware reconfiguration ablation
//	dyncache            §3     — dynamic-content caching coherence
//	qos                 §3     — soft QoS / admission control under overload
//	multicast           framework — multicast dissemination latency
//	filecache           §6     — remote-memory file cache, warm restart
//	integrated          §6     — full-stack integrated evaluation
//	recovery            fault model — lock recovery latency vs lease length
//	dc-scale            datacenter at scale — cluster size × transport mode
//	all                 run every experiment
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ngdc/internal/experiments"
	"ngdc/internal/faults"
	"ngdc/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	quick := fs.Bool("quick", false, "shrunken sweeps and windows")
	mode := fs.String("mode", "shared", "lock-cascade: shared or exclusive")
	proxies := fs.Int("proxies", 2, "coopcache: proxy nodes")
	rubis := fs.Bool("rubis", false, "monitor-throughput: RUBiS mix instead of Zipf")
	measure := fs.Duration("measure", 0, "override the virtual measurement window")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines per sweep (cells run concurrently; results are byte-identical for every value)")
	traceFile := fs.String("trace", "", "write per-layer trace counters (JSONL) to this file")
	faultPlan := fs.String("faults", "",
		`deterministic fault plan, e.g. "crash@700ms node=2; restart@1400ms node=2" (see internal/faults)`)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken at the end of the run to this file")

	switch cmd {
	case "-h", "--help", "help":
		usage()
		return
	}
	fs.Parse(args)

	var e experiments.Experiment
	if cmd != "all" {
		var ok bool
		if e, ok = experiments.Find(cmd); !ok {
			fmt.Fprintf(os.Stderr, "ngdc-bench: unknown experiment %q\n\n", cmd)
			usage()
			os.Exit(2)
		}
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if unread := experiments.UnreadFlags(cmd, set); unread != nil {
		fmt.Fprintf(os.Stderr, "ngdc-bench: %s reads no -%s\n", cmd, strings.Join(unread, ", -"))
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
	}

	opt := experiments.Options{
		Seed:     *seed,
		Quick:    *quick,
		Mode:     *mode,
		Proxies:  *proxies,
		RUBiS:    *rubis,
		Measure:  *measure,
		Parallel: *parallel,
	}
	if *faultPlan != "" {
		plan, err := faults.Parse(*faultPlan)
		if err != nil {
			fail(err)
		}
		opt.Faults = plan
	}

	var traceOut *os.File
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fail(err)
		}
		traceOut = f
		opt.Trace = trace.NewRegistry()
	}

	if cmd == "all" {
		for _, e := range experiments.All() {
			tb, err := e.Render(opt)
			if err != nil {
				fail(fmt.Errorf("%s (%s): %w", e.ID, e.Figure, err))
			}
			fmt.Println(tb)
		}
		writeTrace(traceOut, opt.Trace)
		return
	}
	tb, err := e.Render(opt)
	if err != nil {
		fail(err)
	}
	fmt.Println(tb)
	writeTrace(traceOut, opt.Trace)
}

// writeTrace renders the accumulated counters of every environment the
// run touched into f as JSONL records.
func writeTrace(f *os.File, r *trace.Registry) {
	if f == nil {
		return
	}
	w := bufio.NewWriter(f)
	if err := r.Snapshot().WriteJSONL(w); err != nil {
		fail(err)
	}
	if err := w.Flush(); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ngdc-bench:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ngdc-bench <experiment> [-seed N] [-quick] [-parallel N] [-trace file] [-faults plan] [flags]

experiments:`)
	for _, e := range experiments.All() {
		fmt.Fprintf(os.Stderr, "  %-34s %s (%s)\n", e.CommandName(), e.Figure, e.ID)
	}
	fmt.Fprintln(os.Stderr, "  all                                run every experiment")
}
