// Package experiments is the library behind cmd/ngdc-bench: every paper
// table/figure as a function returning a rendered metrics.Table. Keeping
// the generators here (rather than in the command) makes the whole
// evaluation surface unit-testable; the Quick option shrinks sweeps and
// measurement windows so the full catalogue runs in seconds under
// `go test`.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"ngdc/internal/coopcache"
	"ngdc/internal/ddss"
	"ngdc/internal/dlm"
	"ngdc/internal/dyncache"
	"ngdc/internal/filecache"
	"ngdc/internal/integrated"
	"ngdc/internal/metrics"
	"ngdc/internal/monitor"
	"ngdc/internal/multicast"
	"ngdc/internal/qos"
	"ngdc/internal/reconfig"
	"ngdc/internal/runtime"
	"ngdc/internal/sockets"
	"ngdc/internal/storm"
)

// Options tunes a run.
type Options struct {
	// Seed (0 means 1) seeds the workload streams of the experiments
	// that draw random numbers: E5, E6, E8, E11, E12, E13, E16 and E18.
	// E1–E4, E7, E9, E10, E14, E15 and E17 draw none, and every seed
	// gives them the same table.
	Seed int64
	// Quick shrinks sweeps and windows for fast smoke runs.
	Quick bool
	// Proxies selects the Fig 6 variant (2 → 6a, 8 → 6b).
	Proxies int
	// Mode selects the Fig 5 variant: "shared" or "" → 5a, "exclusive"
	// → 5b. LockCascade rejects any other value.
	Mode string
	// RUBiS selects the auction mix for Fig 8b.
	RUBiS bool
	// Measure overrides the virtual measurement window (0 = default).
	Measure time.Duration
	// Parallel bounds the worker goroutines a sweep fans its cells
	// across (0 = GOMAXPROCS). Results are identical for every value:
	// cells are independent simulations and sweep returns their results
	// and folds their trace counters in cell order (see sweep).
	Parallel int
	// ServiceOptions is what every cell's run is opened with. Trace,
	// when non-nil, accumulates every run's observability counters into
	// one registry (snapshot it after the experiment); Faults, when
	// non-nil, is a deterministic fault plan injected into the
	// experiments that support one (currently reconfig) — replaying the
	// same plan with the same seed reproduces the run byte-for-byte;
	// Params recalibrates the fabric of every cell.
	runtime.ServiceOptions
}

// healthy is the carrier of a cell that takes no fault plan: every
// experiment but reconfig, the only one whose table reports what a plan
// did (its failovers column). The others reproduce figures of a healthy
// cluster.
func (o Options) healthy() runtime.ServiceOptions {
	return runtime.ServiceOptions{Trace: o.Trace, Params: o.Params}
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Experiment is one regenerable paper result.
type Experiment struct {
	// ID is the index used in DESIGN.md/EXPERIMENTS.md (e.g. "E1").
	ID string
	// Figure names the paper artefact (e.g. "Fig 3a").
	Figure string
	// Name is the ngdc-bench subcommand.
	Name string
	// Flags is the flag suffix selecting this variant, for listings
	// (e.g. "-mode shared").
	Flags string
	// Pin fixes the options that select this catalogue entry's variant
	// (e.g. Fig 5a pins Mode "shared"); nil means no pinned variant.
	Pin func(Options) Options
	// Reads names the ngdc-bench variant flags Run reads (e.g.
	// "proxies"). A pinned entry does not read the flag its Flags names:
	// Pin overrides it.
	Reads []string
	// Run produces the rendered table.
	Run func(Options) (*metrics.Table, error)
	// GoldenExcluded keeps the experiment out of the pinned Quick
	// catalogue golden: set it on entries added after the golden was
	// captured (the golden stays a byte-exact pre-existing baseline).
	GoldenExcluded bool
}

// Render runs the experiment with its variant pinned.
func (e Experiment) Render(o Options) (*metrics.Table, error) {
	if e.Pin != nil {
		o = e.Pin(o)
	}
	return e.Run(o)
}

// CommandName returns the full subcommand line including pinned flags,
// for the catalogue listing.
func (e Experiment) CommandName() string {
	if e.Flags == "" {
		return e.Name
	}
	return e.Name + " " + e.Flags
}

// All returns the full catalogue in paper order. Subcommand names repeat
// where one command covers several figure variants; Find resolves a name
// to its first (canonical) entry.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Figure: "Fig 3a", Name: "ddss-latency", Run: DDSSLatency},
		{ID: "E2", Figure: "Fig 3b", Name: "storm", Run: Storm},
		{ID: "E3", Figure: "Fig 5a", Name: "lock-cascade", Flags: "-mode shared",
			Pin: func(o Options) Options { o.Mode = "shared"; return o }, Reads: []string{"mode"}, Run: LockCascade},
		{ID: "E4", Figure: "Fig 5b", Name: "lock-cascade", Flags: "-mode exclusive",
			Pin: func(o Options) Options { o.Mode = "exclusive"; return o }, Reads: []string{"mode"}, Run: LockCascade},
		{ID: "E5", Figure: "Fig 6a", Name: "coopcache", Flags: "-proxies 2",
			Pin: func(o Options) Options { o.Proxies = 2; return o }, Reads: []string{"proxies", "measure"}, Run: CoopCache},
		{ID: "E6", Figure: "Fig 6b", Name: "coopcache", Flags: "-proxies 8",
			Pin: func(o Options) Options { o.Proxies = 8; return o }, Reads: []string{"proxies", "measure"}, Run: CoopCache},
		{ID: "E7", Figure: "Fig 8a", Name: "monitor-accuracy", Run: MonitorAccuracy},
		{ID: "E8", Figure: "Fig 8b", Name: "monitor-throughput", Reads: []string{"rubis"}, Run: MonitorThroughput},
		{ID: "E9", Figure: "§6 flow control", Name: "flowcontrol", Run: FlowControl},
		{ID: "E10", Figure: "§3 AZ-SDP", Name: "sdp", Run: SDP},
		{ID: "E11", Figure: "§6 reconfiguration", Name: "reconfig", Reads: []string{"faults"}, Run: Reconfig},
		{ID: "E12", Figure: "§3 dynamic content", Name: "dyncache", Run: DynCache},
		{ID: "E13", Figure: "§3 QoS", Name: "qos", Run: QoS},
		{ID: "E14", Figure: "multicast", Name: "multicast", Run: Multicast},
		{ID: "E15", Figure: "§6 file cache", Name: "filecache", Run: FileCache, GoldenExcluded: true},
		{ID: "E16", Figure: "§6 integrated", Name: "integrated", Run: Integrated},
		{ID: "E17", Figure: "fault recovery", Name: "recovery", Run: Recovery, GoldenExcluded: true},
		{ID: "E18", Figure: "datacenter at scale", Name: "dc-scale", Run: DCScale, GoldenExcluded: true},
	}
}

// Find resolves a subcommand name to its catalogue entry. Variant flags
// stay under the caller's control: the resolved experiment is run
// without pinning, so -mode/-proxies flags apply.
func Find(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			e.Pin = nil
			return e, true
		}
	}
	return Experiment{}, false
}

// UnreadFlags returns, in the order of set, the variant flags set names
// (flags some catalogue entry Reads) that no experiment the subcommand
// cmd runs reads: Find's entry, or for "all" every entry, pinned. A
// flag no entry reads, like -seed or -trace, is not a variant flag.
func UnreadFlags(cmd string, set []string) []string {
	run := All()
	if cmd != "all" {
		e, _ := Find(cmd)
		run = []Experiment{e}
	}
	var out []string
	for _, name := range set {
		variant, read := false, false
		for _, e := range All() {
			variant = variant || slices.Contains(e.Reads, name)
		}
		for _, e := range run {
			read = read || e.reads(name)
		}
		if variant && !read {
			out = append(out, name)
		}
	}
	return out
}

// reads reports whether e, run as it is, reads the variant flag name.
func (e Experiment) reads(name string) bool {
	return slices.Contains(e.Reads, name) && (e.Pin == nil || !strings.HasPrefix(e.Flags, "-"+name+" "))
}

// DDSSLatency regenerates Fig 3a.
func DDSSLatency(o Options) (*metrics.Table, error) {
	sizes := []int{1, 64, 1 << 10, 4 << 10, 16 << 10, 64 << 10}
	if o.Quick {
		sizes = []int{1, 4 << 10}
	}
	cols := []string{"size"}
	for _, m := range ddss.Models {
		cols = append(cols, m.String())
	}
	lats, err := grid(o, sizes, ddss.Models, func(sz int, m ddss.Coherence, o Options) (time.Duration, error) {
		return ddss.MeasurePutLatency(m, sz, o.healthy())
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Fig 3a — DDSS put() latency (µs) per coherence model", cols...)
	for r, sz := range sizes {
		row := []any{sz}
		for _, lat := range lats[r] {
			row = append(row, us(lat))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Storm regenerates Fig 3b.
func Storm(o Options) (*metrics.Table, error) {
	records := []int{1000, 5000, 10000, 50000, 100000}
	if o.Quick {
		records = []int{1000, 5000}
	}
	type pair struct{ tcp, dd storm.Result }
	res, err := sweep(o, records, func(rec int, o Options) (pair, error) {
		tcp, dd, err := storm.Compare(rec, o.healthy())
		return pair{tcp, dd}, err
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Fig 3b — STORM query execution time (ms)",
		"records", "STORM", "STORM-DDSS", "improvement%")
	for i, rec := range records {
		tcp, dd := res[i].tcp, res[i].dd
		imp := metrics.PercentImprovement(1/float64(tcp.Elapsed), 1/float64(dd.Elapsed))
		tb.AddRow(rec,
			float64(tcp.Elapsed)/float64(time.Millisecond),
			float64(dd.Elapsed)/float64(time.Millisecond),
			imp)
	}
	return tb, nil
}

// LockCascade regenerates Fig 5a (shared) or 5b (exclusive).
func LockCascade(o Options) (*metrics.Table, error) {
	mode, sub := dlm.Shared, "5a"
	switch o.Mode {
	case "", "shared":
	case "exclusive":
		mode, sub = dlm.Exclusive, "5b"
	default:
		return nil, fmt.Errorf("lock-cascade: unknown mode %q (want shared or exclusive)", o.Mode)
	}
	waiters := []int{1, 2, 4, 8, 16}
	if o.Quick {
		waiters = []int{2, 8}
	}
	kinds := []dlm.Kind{dlm.SRSL, dlm.DQNL, dlm.NCoSED}
	lasts, err := grid(o, waiters, kinds, func(n int, k dlm.Kind, o Options) (time.Duration, error) {
		r, err := dlm.Cascade(k, mode, n, o.healthy())
		return r.Last, err
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Fig %s — %v-lock cascading latency (µs, release to last grant)", sub, mode),
		"waiters", "SRSL", "DQNL", "N-CoSED", "N-CoSED gain vs DQNL%")
	for r, n := range waiters {
		vals := lasts[r]
		gain := metrics.PercentImprovement(1/float64(vals[1]), 1/float64(vals[2]))
		tb.AddRow(n, us(vals[0]), us(vals[1]), us(vals[2]), gain)
	}
	return tb, nil
}

// CoopCache regenerates Fig 6a/6b.
func CoopCache(o Options) (*metrics.Table, error) {
	proxies := o.Proxies
	if proxies == 0 {
		proxies = 2
	}
	sub := "6a"
	if proxies >= 8 {
		sub = "6b"
	}
	sizes := []int64{8 << 10, 16 << 10, 32 << 10, 64 << 10}
	if o.Quick {
		sizes = []int64{32 << 10}
	}
	cols := []string{"file size"}
	for _, s := range coopcache.Schemes {
		cols = append(cols, s.String())
	}
	tps, err := grid(o, sizes, coopcache.Schemes, func(fsz int64, sc coopcache.Scheme, o Options) (float64, error) {
		cfg := coopcache.DefaultConfig(sc, proxies, fsz)
		cfg.Seed = o.seed()
		cfg.ServiceOptions = o.healthy()
		if o.Measure > 0 {
			cfg.Measure = o.Measure
		} else if o.Quick {
			cfg.Measure = 400 * time.Millisecond
			cfg.Warmup = 150 * time.Millisecond
		}
		st, err := coopcache.Run(cfg)
		return st.TPS, err
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Fig %s — data-center throughput (TPS), %d proxy nodes", sub, proxies), cols...)
	for r, fsz := range sizes {
		row := []any{fmt.Sprintf("%dk", fsz>>10)}
		for _, tp := range tps[r] {
			row = append(row, tp)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// MonitorAccuracy regenerates Fig 8a.
func MonitorAccuracy(o Options) (*metrics.Table, error) {
	schemes := monitor.Schemes
	res, err := sweep(o, schemes, func(sc monitor.Scheme, o Options) (monitor.AccuracyResult, error) {
		cfg := monitor.DefaultAccuracyConfig(sc)
		cfg.ServiceOptions = o.healthy()
		if o.Quick {
			cfg.Duration = 600 * time.Millisecond
		}
		return monitor.Accuracy(cfg)
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Fig 8a — monitoring accuracy (deviation of reported vs actual threads)",
		"scheme", "mean |dev|", "max |dev|", "samples")
	for i, sc := range schemes {
		tb.AddRow(sc.String(), res[i].MeanAbsDeviation(), res[i].MaxAbsDeviation(), len(res[i].Samples))
	}
	return tb, nil
}

// MonitorThroughput regenerates Fig 8b.
func MonitorThroughput(o Options) (*metrics.Table, error) {
	cols := []string{"alpha"}
	for _, sc := range monitor.Schemes {
		cols = append(cols, sc.String())
	}
	title := "Fig 8b — throughput improvement over Socket-Async (%), Zipf trace"
	alphas := []float64{0.9, 0.75, 0.5, 0.25}
	if o.Quick {
		alphas = []float64{0.9}
	}
	if o.RUBiS {
		title = "Fig 8b — throughput improvement over Socket-Async (%), RUBiS mix"
		alphas = []float64{0}
	}
	stats, err := grid(o, alphas, monitor.Schemes, func(a float64, sc monitor.Scheme, o Options) (monitor.LBStats, error) {
		cfg := monitor.DefaultLBConfig(sc, a)
		cfg.RUBiS = o.RUBiS
		cfg.Seed = o.seed()
		cfg.ServiceOptions = o.healthy()
		if o.Quick {
			cfg.Measure = 500 * time.Millisecond
		}
		return monitor.RunLB(cfg)
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable(title, cols...)
	for i, a := range alphas {
		label := fmt.Sprintf("%.2f", a)
		if o.RUBiS {
			label = "RUBiS"
		}
		cells := stats[i]
		var base float64
		for _, st := range cells {
			if st.Scheme == monitor.SocketAsync {
				base = st.TPS
			}
		}
		row := []any{label}
		for _, st := range cells {
			row = append(row, metrics.PercentImprovement(base, st.TPS))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// bandwidthGrid runs sockets.MeasureBandwidth on every (size, scheme)
// pair, one sweep cell each; size r's scheme c is at bws[r][c].
func bandwidthGrid(o Options, schemes []sockets.Scheme, sizes []int, msgs int) ([][]float64, error) {
	return grid(o, sizes, schemes, func(sz int, sc sockets.Scheme, o Options) (float64, error) {
		return sockets.MeasureBandwidth(sc, sz, msgs, o.healthy())
	})
}

// FlowControl regenerates the §6 packetized-flow-control comparison.
func FlowControl(o Options) (*metrics.Table, error) {
	sizes := []int{1, 16, 64, 256, 1 << 10, 8 << 10}
	msgs := 3000
	if o.Quick {
		sizes = []int{64}
		msgs = 500
	}
	schemes := []sockets.Scheme{sockets.BSDP, sockets.PSDP}
	bws, err := bandwidthGrid(o, schemes, sizes, msgs)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("§6 — credit-based vs packetized flow control (MB/s)",
		"msg size", "BSDP (credit)", "P-SDP (packetized)", "speedup x")
	for r, sz := range sizes {
		bsdp, psdp := bws[r][0], bws[r][1]
		tb.AddRow(sz, bsdp/1e6, psdp/1e6, metrics.Ratio(psdp, bsdp))
	}
	return tb, nil
}

// SDP regenerates the §3 SDP-family bandwidth comparison.
func SDP(o Options) (*metrics.Table, error) {
	schemes := []sockets.Scheme{sockets.TCP, sockets.BSDP, sockets.ZSDP, sockets.AZSDP}
	sizes := []int{1 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10}
	msgs := 200
	if o.Quick {
		sizes = []int{32 << 10}
		msgs = 50
	}
	cols := []string{"msg size"}
	for _, sc := range schemes {
		cols = append(cols, sc.String())
	}
	bws, err := bandwidthGrid(o, schemes, sizes, msgs)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("§3 — streaming bandwidth (MB/s) of the SDP family", cols...)
	for r, sz := range sizes {
		row := []any{fmt.Sprintf("%dk", sz>>10)}
		for _, bw := range bws[r] {
			row = append(row, bw/1e6)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Reconfig regenerates the §6 reconfiguration ablation.
func Reconfig(o Options) (*metrics.Table, error) {
	policies := []reconfig.Policy{reconfig.Naive, reconfig.HistoryAware}
	res, err := sweep(o, policies, func(p reconfig.Policy, o Options) (reconfig.Result, error) {
		cfg := reconfig.DefaultConfig(p)
		cfg.Seed = o.seed()
		cfg.ServiceOptions = o.ServiceOptions
		if o.Quick {
			cfg.Measure = time.Second
		}
		return reconfig.Run(cfg)
	})
	if err != nil {
		return nil, err
	}
	if o.Faults != nil {
		// Under a fault plan the failure detector is live; report its
		// failovers too (the extra column never appears in the pinned
		// fault-free golden).
		tb := metrics.NewTable("§6 — dynamic reconfiguration ablation (fault plan active)",
			"policy", "TPS", "node moves", "CAS conflicts", "failovers")
		for i, p := range policies {
			tb.AddRow(p.String(), res[i].TPS, res[i].Reconfigs, res[i].CASConflicts, res[i].Failovers)
		}
		return tb, nil
	}
	tb := metrics.NewTable("§6 — dynamic reconfiguration ablation",
		"policy", "TPS", "node moves", "CAS conflicts")
	for i, p := range policies {
		tb.AddRow(p.String(), res[i].TPS, res[i].Reconfigs, res[i].CASConflicts)
	}
	return tb, nil
}

// DynCache regenerates the §3 dynamic-content coherence comparison.
func DynCache(o Options) (*metrics.Table, error) {
	schemes := dyncache.Schemes
	sts, err := sweep(o, schemes, func(sc dyncache.Scheme, o Options) (dyncache.Stats, error) {
		cfg := dyncache.DefaultConfig(sc)
		cfg.Seed = o.seed()
		cfg.ServiceOptions = o.healthy()
		if o.Quick {
			cfg.Measure = 500 * time.Millisecond
		}
		return dyncache.Run(cfg)
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("§3 — dynamic-content caching with multi-dependency coherence",
		"scheme", "TPS", "hit%", "renders", "stale served", "mean ms")
	for i, sc := range schemes {
		st := sts[i]
		hit := 0.0
		if st.Requests > 0 {
			hit = 100 * float64(st.CoherentHits) / float64(st.Requests)
		}
		tb.AddRow(sc.String(), st.TPS, hit, st.Renders, st.StaleServed, st.MeanLatencyMs)
	}
	return tb, nil
}

// QoS regenerates the §3 admission-control comparison.
func QoS(o Options) (*metrics.Table, error) {
	policies := []qos.Policy{qos.NoControl, qos.PriorityAdmission}
	sts, err := sweep(o, policies, func(p qos.Policy, o Options) (qos.Stats, error) {
		cfg := qos.DefaultConfig(p)
		cfg.Seed = o.seed()
		cfg.ServiceOptions = o.healthy()
		if o.Quick {
			cfg.Measure = 700 * time.Millisecond
		}
		return qos.Run(cfg)
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("§3 — soft QoS under 2x overload (premium vs basic)",
		"policy", "class", "TPS", "p95 ms", "rejected")
	for i, p := range policies {
		st := sts[i]
		tb.AddRow(p.String(), "premium", st.Premium.TPS, st.Premium.P95Ms, st.Premium.Rejected)
		tb.AddRow(p.String(), "basic", st.Basic.TPS, st.Basic.P95Ms, st.Basic.Rejected)
	}
	return tb, nil
}

// Multicast regenerates the multicast-primitive latency sweep.
func Multicast(o Options) (*metrics.Table, error) {
	sizes := []int{2, 4, 8, 16, 32, 64}
	if o.Quick {
		sizes = []int{4, 16}
	}
	strategies := []multicast.Strategy{multicast.Serial, multicast.Binomial}
	lats, err := grid(o, sizes, strategies, func(n int, st multicast.Strategy, o Options) (time.Duration, error) {
		return multicast.MeasureLatency(st, n, 4096, o.healthy())
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("framework — multicast dissemination latency (µs, to last member)",
		"group size", "serial", "binomial", "speedup x")
	for r, n := range sizes {
		serial, binom := lats[r][0], lats[r][1]
		tb.AddRow(n, us(serial), us(binom), metrics.Ratio(float64(serial), float64(binom)))
	}
	return tb, nil
}

// FileCache regenerates the §6 remote-memory file-cache comparison.
func FileCache(o Options) (*metrics.Table, error) {
	modes := []filecache.Mode{filecache.DiskOnly, filecache.RemoteMemory}
	type restart struct {
		mean float64
		warm int
	}
	res, err := sweep(o, modes, func(m filecache.Mode, o Options) (restart, error) {
		mean, warm, err := filecache.MeasureRestart(m, o.healthy())
		return restart{mean, warm}, err
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("§6 — remote-memory file cache (128-page working set, 2x the local cache)",
		"mode", "mean read µs", "remote after flush")
	for i, m := range modes {
		tb.AddRow(m.String(), res[i].mean, res[i].warm)
	}
	return tb, nil
}

// Integrated regenerates the §6 full-stack comparison.
func Integrated(o Options) (*metrics.Table, error) {
	stacks := []integrated.Stack{integrated.Traditional, integrated.RDMAStack}
	res, err := sweep(o, stacks, func(st integrated.Stack, o Options) (integrated.Stats, error) {
		cfg := integrated.DefaultConfig(st)
		cfg.Seed = o.seed()
		cfg.ServiceOptions = o.healthy()
		if o.Quick {
			cfg.Measure = time.Second
		}
		return integrated.Run(cfg)
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("§6 — integrated evaluation: full stacks on the same workload",
		"stack", "TPS", "p95 ms", "reconfigs", "sibling fills", "backend fetches")
	for i, st := range stacks {
		r := res[i]
		tb.AddRow(st.String(), r.TPS, r.P95Ms, r.Reconfigs, r.SiblingFills, r.BackendFetches)
	}
	return tb, nil
}

// us converts a virtual duration to the microseconds a table prints.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
