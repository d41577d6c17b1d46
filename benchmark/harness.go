package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // time budget of one run's timed repetitions, see repsFor
	trace    bool    // traced run: per-layer metrics instead of end-to-end
	smoke    bool    // 1/100-size workloads, for the tests
	corrupt  bool    // self-test: break one expected output so verification must fail
	spans    string  // where the traced run writes its span file
}

// scale shrinks a full-size count for -smoke runs.
func (c config) scale(n int) int {
	if c.smoke {
		return max(n/100, 1)
	}
	return n
}

// A workload is one fixed-work closed-loop input set. rep performs one
// repetition: it builds what the harness must build itself, calls
// run.timed exactly once around the call into the program, and checks
// the outputs.
type workload struct {
	name string
	why  string
	// des marks a discrete-event workload: one runnable goroutine at a
	// time, so the harness pins GOMAXPROCS to 1 (extra Ps only add
	// cross-core baton hand-off; sim.multi_p_slowdown publishes by how
	// much).
	des bool
	// call names the timed call for the span log.
	call string
	// prepare generates the workload's inputs from the seed, once.
	prepare func(r *run) error
	rep     func(r *run) repOut
}

// repOut is what one repetition reports back to the harness.
type repOut struct {
	requests int64  // operations attempted
	failed   int64  // operations that failed, or all of them if the repetition broke a check
	digest   string // DES model outputs, compared across repetitions; "" on the live workload
	why      string // first failure, for the log
	// build is one construction of the program under test as far as it
	// is visible from outside (setup.build_ms).
	build time.Duration
	// events is the engine's processed-event count, 0 when the workload
	// exposes none.
	events uint64
	// layer holds per-layer values read from public results, keyed by
	// metric name and already normalised (per request, per kreq, ...).
	layer map[string]float64
}

// window is the harness's own measurement of one timed call.
type window struct {
	wall, cpu           time.Duration
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
}

// run is the state of one benchmark run.
type run struct {
	cfg   config
	w     *workload
	spans *spanLog // nil on an untraced run
	root  int      // root span

	// Set by the repetition loop for the repetition in flight.
	repSpan   int
	callSpan  int  // the timed call's span: parent for spans the workload records inside it
	tracedRep bool // this repetition runs under the CPU profile and reads MemStats
	win       window
	timedOnce bool

	profiles [][]byte // one gzip'd CPU profile per traced repetition
	// CPU time of the traced windows as the profile and as getrusage saw it.
	profileNs, rusageNs int64
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs fn — the call into the program under test — as the
// repetition's timed window: wall and CPU clocks are read directly
// around it, and nothing else runs inside. A collection beforehand
// gives every window the same clean heap, which is also what a user
// running one cell or one server from a fresh process gets.
func (r *run) timed(fn func()) {
	if r.timedOnce {
		panic("benchmark: a repetition has exactly one timed window")
	}
	r.timedOnce = true
	runtime.GC()
	var m0, m1 runtime.MemStats
	var prof bytes.Buffer
	if r.tracedRep {
		runtime.ReadMemStats(&m0)
		// The default 100 Hz, on purpose: CPU-time timers fire on kernel
		// ticks, and at 500 Hz a 250 Hz kernel delivered under half the
		// samples, so the fold no longer summed to the measured CPU time.
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: cpu profile:", err)
		}
	}
	r.callSpan = r.spans.start(r.repSpan, r.w.call)
	c0, t0 := cpuTime(), time.Now()
	fn()
	r.win = window{wall: time.Since(t0), cpu: cpuTime() - c0}
	r.spans.end(r.callSpan)
	if r.tracedRep {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&m1)
		r.win.mallocs = m1.Mallocs - m0.Mallocs
		r.win.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		r.win.gcCycles = m1.NumGC - m0.NumGC
		r.win.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		r.profiles = append(r.profiles, prof.Bytes())
	}
}

// repRecord is one finished repetition.
type repRecord struct {
	out     repOut
	win     window
	untimed time.Duration // the repetition's wall time outside its window: set-up and checks
	traced  bool
}

// repeat runs one repetition under a span and returns its record.
func (r *run) repeat(name string, traced bool) repRecord {
	r.repSpan = r.spans.start(r.root, name)
	r.tracedRep, r.timedOnce, r.win = traced, false, window{}
	t0 := time.Now()
	out := r.w.rep(r)
	total := time.Since(t0)
	if !r.timedOnce && out.failed == 0 {
		panic("benchmark: repetition passed without opening its timed window")
	}
	r.spans.count(r.repSpan, "requests", float64(out.requests))
	r.spans.count(r.repSpan, "failed", float64(out.failed))
	r.spans.end(r.repSpan)
	return repRecord{out: out, win: r.win, untimed: total - r.win.wall, traced: traced}
}

// minReps is the fewest timed repetitions a median is taken over, and
// repSeconds what one repetition is sized to take on the reference host
// (1.3 to 2.3 s across the five workloads on the 2-core Xeon the
// baseline was taken on).
const (
	minReps    = 5
	repSeconds = 2
)

// repsFor turns the run's time budget into a repetition count. The
// count depends on the budget alone, never on how fast this host turns
// out to be, so every run at one setting does exactly the same work —
// which peak_rss_mb and setup_s need in order to repeat.
func repsFor(cfg config) int {
	if cfg.smoke {
		if cfg.trace {
			return 2 // one plain, one traced
		}
		return 1
	}
	floor := minReps
	if cfg.trace {
		// Every second repetition is traced, so that one process yields
		// both sides of trace.overhead_frac; each side needs minReps.
		floor = 2 * minReps
	}
	return max(floor, int(cfg.seconds/repSeconds+0.5))
}

// measure runs the warm-up repetition and then the timed ones.
func (r *run) measure() (warm repRecord, reps []repRecord) {
	warm = r.repeat("warmup", false)
	for i, n := 0, repsFor(r.cfg); i < n; i++ {
		reps = append(reps, r.repeat(fmt.Sprintf("rep[%d]", i), r.cfg.trace && i%2 == 1))
	}
	return warm, reps
}

// processAge is the wall time since the process was started, from the
// kernel's own record, so that runtime and package initialisation count
// as set-up. since is the fallback when /proc is unreadable.
func processAge(since time.Time) time.Duration {
	stat, err1 := os.ReadFile("/proc/self/stat")
	up, err2 := os.ReadFile("/proc/uptime")
	if err1 == nil && err2 == nil {
		// Field 22 (starttime, in clock ticks since boot) counted after
		// the ")" that closes the command name, which may hold spaces.
		if i := bytes.LastIndexByte(stat, ')'); i >= 0 {
			f := strings.Fields(string(stat[i+1:]))
			upf := strings.Fields(string(up))
			if len(f) > 19 && len(upf) > 0 {
				ticks, e1 := strconv.ParseFloat(f[19], 64)
				uptime, e2 := strconv.ParseFloat(upf[0], 64)
				const clkTck = 100 // USER_HZ, fixed on Linux
				if age := uptime - ticks/clkTck; e1 == nil && e2 == nil && age >= 0 {
					return time.Duration(age * float64(time.Second))
				}
			}
		}
	}
	return time.Since(since)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// hostInfo is the fingerprint every result carries: numbers measured on
// different hosts are not comparable.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the workload that ran
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}
