// Command benchmark is the repository's benchmark: five fixed-work,
// closed-loop workloads, each measured as the median over the timed
// repetitions of one run, with a per-layer cost account taken from
// outside the program by a separate traced run. README.md in this
// directory says why each workload, metric and bound was chosen.
//
//	go run -C benchmark . --workload e18-hit --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). The exit code is non-zero when any check failed.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var processStart = time.Now()

var workloads = []*workload{e18Hit, e18Churn, svcSim, svcLive, figs}

// pinned holds each DES workload's model-output digest at seed 1, full
// size. A run at that seed must reproduce it: a change that only makes
// the simulator faster leaves every simulated statistic identical.
//
//go:embed testdata/digests.json
var pinnedJSON []byte

const pinnedSeed = 1

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain is main with its streams and exit code exposed to the tests:
// 0 when every check passed, 1 when an output was wrong, 2 when the run
// could not be made.
func realMain(args []string, stdout, stderr io.Writer) int {
	var cfg config
	var trace, aa int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: e18-hit, e18-churn, svc-sim, svc-live or figs")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every input generator")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "time budget of one run: it makes seconds/2 timed repetitions of about 2 s each, at least 5")
	fs.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes the span file")
	fs.BoolVar(&cfg.smoke, "smoke", false, "1/100-size workloads (for the tests; the numbers mean nothing)")
	fs.BoolVar(&cfg.corrupt, "corrupt", false, "self-test: corrupt one expected output; the run must fail")
	fs.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default .bench_build/spans-<workload>.json in the checkout)")
	fs.IntVar(&aa, "aa", 0, "self-check: run every workload N times in each of two interleaved sets and compare their medians")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0

	if aa > 0 {
		return runAA(aa, cfg, stdout, stderr)
	}
	res, err := runBenchmark(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runBenchmark performs one run and prints its report to out: every
// metric by name with its unit, then the result line.
func runBenchmark(cfg config, out io.Writer) (result, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	root, err := repoRoot()
	if err != nil {
		return result{}, err
	}
	var pinned map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return result{}, fmt.Errorf("testdata/digests.json: %w", err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	if w.des {
		runtime.GOMAXPROCS(1)
	}
	host := readHost()
	r := &run{cfg: cfg, w: w, root: -1}
	if cfg.trace {
		r.spans = newSpanLog()
		r.root = r.spans.start(-1, "run")
	}
	setup := r.spans.start(r.root, "setup")
	if w.prepare != nil {
		if err := w.prepare(r); err != nil {
			return result{}, err
		}
	}
	r.spans.end(setup)
	once := processAge(processStart)

	warm, reps := r.measure()

	// Every repetition of a DES workload must reproduce the warm-up's
	// model outputs, and at the pinned seed the pinned ones.
	want, pinApplies := warm.out.digest, false
	if pin, ok := pinned[w.name]; ok && cfg.seed == pinnedSeed && !cfg.smoke {
		want, pinApplies = pin, true
	}
	if cfg.corrupt && w.des {
		want, pinApplies = "corrupt", false
	}
	var multiP []repRecord
	if cfg.trace && w.des && runtime.NumCPU() > 1 && !cfg.smoke {
		// What the extra Ps cost a workload that can use only one.
		runtime.GOMAXPROCS(runtime.NumCPU())
		for i := 0; i < 3; i++ {
			multiP = append(multiP, r.repeat(fmt.Sprintf("multi-p[%d]", i), false))
		}
		runtime.GOMAXPROCS(1)
	}
	all := []*repRecord{&warm}
	for i := range reps {
		all = append(all, &reps[i])
	}
	for i := range multiP {
		all = append(all, &multiP[i])
	}
	res := result{Metrics: map[string]metricValue{}}
	digestMatch := 1.0
	for i, rec := range all {
		if rec.out.failed == 0 && rec.out.digest != want {
			rec.out.failed = rec.out.requests
			rec.out.why = fmt.Sprintf("model outputs %q differ from %q", rec.out.digest, want)
			if pinApplies {
				rec.out.why += " pinned in testdata/digests.json"
			}
			digestMatch = 0
		}
		res.Attempted += rec.out.requests
		res.Failed += rec.out.failed
		if rec.out.failed > 0 {
			fmt.Fprintf(out, "FAILED repetition %d: %d of %d operations: %s\n", i, rec.out.failed, rec.out.requests, rec.out.why)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, cfg.seed, w.why)
	fmt.Fprintf(out, "host: %s, nproc %d, GOMAXPROCS %d, %s, kernel %s\n", host.CPU, host.NProc, host.GOMAXPROCS, host.Go, host.Kernel)
	fmt.Fprintf(out, "load: closed loop, fixed work, one process, %s; 1 warm-up + %d timed repetitions of %d requests\n",
		loadStatement(w), len(reps), warm.out.requests)
	if w == svcLive {
		fmt.Fprintln(out, "note: loopback TCP, not a real link; the generator is closed-loop, so its lateness is zero by construction")
	} else {
		pin := "no pin at this seed and size"
		if pinApplies {
			pin = "pinned " + want
		}
		fmt.Fprintf(out, "model outputs: digest %s in the warm-up repetition, %s\n", warm.out.digest, pin)
	}

	if cfg.trace {
		layer, err := r.perLayerValues(all, reps, multiP)
		if err != nil {
			return result{}, err
		}
		layer["model.digest_match"] = digestMatch
		layer["fail_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{layer[d.name], d.unit}
			fmt.Fprintf(out, "%-38s %16.4f %s\n", d.name, layer[d.name], d.unit)
		}
		if r.rusageNs > 0 {
			fmt.Fprintf(out, "cpu profile: %d samples' ns cover %.1f%% of the %d ns getrusage measured over the traced windows\n",
				r.profileNs, 100*float64(r.profileNs)/float64(r.rusageNs), r.rusageNs)
		}
		r.spans.end(r.root)
		path := cfg.spans
		if path == "" {
			path = filepath.Join(root, ".bench_build", "spans-"+w.name+".json")
		}
		if err := r.spans.write(path, spanFile{Workload: w.name, Seed: cfg.seed, Host: host, Metrics: res.Metrics}); err != nil {
			return result{}, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(r.spans.spans), path)
	} else {
		var tput, cpu, untimed []float64
		for _, rec := range reps {
			if rec.win.wall > 0 {
				req := float64(rec.out.requests)
				tput = append(tput, req/rec.win.wall.Seconds())
				cpu = append(cpu, float64(rec.win.cpu.Nanoseconds())/1e3/req)
			}
		}
		for _, rec := range all {
			untimed = append(untimed, rec.untimed.Seconds())
		}
		e2e := map[string][]float64{
			"reqs_per_s":     tput,
			"cpu_us_per_req": cpu,
			"peak_rss_mb":    {peakRSSMB()},
			"setup_s":        {once.Seconds() + median(untimed) + warm.win.wall.Seconds()},
		}
		for _, d := range endToEnd {
			xs := e2e[d.name]
			lo, hi := minMax(xs)
			q1, q3 := quartiles(xs)
			res.Metrics[d.name] = metricValue{median(xs), d.unit}
			fmt.Fprintf(out, "%-16s %14.4f %-4s (median of %d; min %.4f, max %.4f, iqr %.4f)\n",
				d.name, median(xs), d.unit, len(xs), lo, hi, q3-q1)
		}
		fmt.Fprintf(out, "%-16s %14.6f      (%d failed of %d attempted)\n", "fail_frac",
			float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	}

	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// loadStatement says how many OS-level workers the workload's load uses.
func loadStatement(w *workload) string {
	if w.des {
		return "DES at GOMAXPROCS 1"
	}
	return fmt.Sprintf("%d connections x window %d at default GOMAXPROCS", liveConns, liveWindow)
}

// perLayerValues derives the traced run's metrics. all is every
// repetition (warm-up first), reps the alternating untraced/traced
// repetitions of the measured loop, multiP the extra repetitions run at
// full GOMAXPROCS.
func (r *run) perLayerValues(all []*repRecord, reps, multiP []repRecord) (map[string]float64, error) {
	out := map[string]float64{}
	var traced, plain []repRecord
	for _, rec := range reps {
		if rec.out.failed > 0 {
			continue
		}
		if rec.traced {
			traced = append(traced, rec)
		} else {
			plain = append(plain, rec)
		}
	}
	collect := func(recs []repRecord, f func(repRecord) float64) []float64 {
		xs := make([]float64, len(recs))
		for i, rec := range recs {
			xs[i] = f(rec)
		}
		return xs
	}
	wallOf := func(rec repRecord) float64 { return rec.win.wall.Seconds() }

	// Counts read from public results, and the harness's own per-window
	// numbers: medians over the traced repetitions.
	byName := map[string][]float64{}
	var tracedReqs float64
	for _, rec := range traced {
		req := float64(rec.out.requests)
		tracedReqs += req
		for name, v := range rec.out.layer {
			byName[name] = append(byName[name], v)
		}
		if rec.out.events > 0 {
			byName["sim.host_ns_per_event"] = append(byName["sim.host_ns_per_event"], float64(rec.win.cpu.Nanoseconds())/float64(rec.out.events))
		}
		byName["goruntime.allocs_per_req"] = append(byName["goruntime.allocs_per_req"], float64(rec.win.mallocs)/req)
		byName["goruntime.alloc_bytes_per_req"] = append(byName["goruntime.alloc_bytes_per_req"], float64(rec.win.allocBytes)/req)
		byName["goruntime.gc_cycles_per_mreq"] = append(byName["goruntime.gc_cycles_per_mreq"], float64(rec.win.gcCycles)/req*1e6)
		byName["goruntime.gc_pause_us_per_kreq"] = append(byName["goruntime.gc_pause_us_per_kreq"], float64(rec.win.gcPause.Microseconds())/req*1e3)
	}
	for name, xs := range byName {
		out[name] = median(xs)
	}
	builds := make([]float64, len(all))
	for i, rec := range all {
		builds[i] = float64(rec.out.build.Microseconds()) / 1e3
	}
	out["setup.build_ms"] = median(builds)
	if len(traced) > 0 && len(plain) > 0 {
		out["trace.overhead_frac"] = median(collect(traced, wallOf))/median(collect(plain, wallOf)) - 1
	}
	if len(multiP) > 0 && len(plain) > 0 {
		out["sim.multi_p_slowdown"] = median(collect(multiP, wallOf)) / median(collect(plain, wallOf))
	}

	// The two cuts of the traced repetitions' CPU profiles.
	var samples []stackSample
	for _, gz := range r.profiles {
		s, err := parseProfile(gz)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s...)
	}
	if tracedReqs > 0 {
		// The profile apportions the CPU time getrusage measured over
		// the same windows: sampling misses a few percent of it, and the
		// layer values are meant to sum to cpu_us_per_req.
		var cpu time.Duration
		for _, rec := range traced {
			cpu += rec.win.cpu
		}
		owner, total := fold(samples, ownerOf)
		leaf, _ := fold(samples, leafOf)
		if total > 0 {
			perSample := float64(cpu.Nanoseconds()) / float64(total) / tracedReqs
			for key, ns := range owner {
				out[key+".cpu_ns_per_req"] = float64(ns) * perSample
			}
			for _, class := range []string{"sched", "mem", "map", "syscall"} {
				out["leaf."+class+"_ns_per_req"] = float64(leaf[class]) * perSample
			}
		}
		r.profileNs, r.rusageNs = total, cpu.Nanoseconds()
		r.spans.count(r.root, "profile_ns", float64(total))
		r.spans.count(r.root, "rusage_ns", float64(cpu.Nanoseconds()))
	}

	id := r.spans.start(r.root, "drives")
	dr, err := runDrives(r.cfg, r.spans, id)
	r.spans.end(id)
	if err != nil {
		return nil, err
	}
	for name, v := range dr {
		out[name] = v
	}
	return out, nil
}
