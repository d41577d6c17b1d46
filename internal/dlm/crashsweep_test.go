package dlm

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/faults"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// The crash-point sweep. Each script runs once fault-free, with a tracer
// recording every distinct instant at which an event fires. Then, for
// every such instant t and every node n, it reruns under the plan
// "crash@t node=n" until sweepHorizon, and classifies every operation
// that started:
//
//	ok                   returned without an error
//	err<=nom             returned an error no later after its start than
//	                     the same operation took in the fault-free run
//	                     (an operation with no fault-free counterpart has
//	                     no nominal bound)
//	err>nom              returned an error later than that
//	waiting/dead-caller  had not returned at the horizon, and its own
//	                     node crashed: the call is moot, not a hang
//	waiting/live         had not returned at the horizon on a live node
//
// An error is judged by its duration, not its end instant, so an
// operation that an earlier one delayed is not charged with that delay.
// A run also records a process panic or other run error, and counts the
// mutual-exclusion violations among holders on live nodes. The table of
// script × op × outcome → count is pinned in testdata/crashsweep.golden:
// it is what the designs do today, hangs and panics included, not what
// they should do.
//
// Each script runs on 3 nodes and 2 locks (lock 0 homed on node 0, lock 1
// on node 1). Client 0 takes lock 0 in the mode opposite the script's
// and holds it for 30 µs; clients 1 and 2 ask for it in the script's mode
// 10 and 12 µs in, so they queue behind client 0, and hold it for 10 µs.
// After its Unlock, every client tries lock 1 once in the script's mode
// and unlocks it if the try succeeded. A client stops at its first error.
const (
	sweepHorizon = time.Millisecond
	sweepLease   = 50 * time.Microsecond
)

type sweepScript struct {
	name  string
	kind  Kind
	mode  Mode          // clients 1 and 2, and every TryLock
	lease time.Duration // N-CoSED LeaseTTL
}

var sweepScripts = []sweepScript{
	{"SRSL/shared", SRSL, Shared, 0},
	{"SRSL/exclusive", SRSL, Exclusive, 0},
	{"DQNL/shared", DQNL, Shared, 0},
	{"DQNL/exclusive", DQNL, Exclusive, 0},
	{"N-CoSED/shared", NCoSED, Shared, 0},
	{"N-CoSED/exclusive", NCoSED, Exclusive, 0},
	{"N-CoSED+lease/shared", NCoSED, Shared, sweepLease},
	{"N-CoSED+lease/exclusive", NCoSED, Exclusive, sweepLease},
}

// sweepOp is one started operation of a script run.
type sweepOp struct {
	client     int
	name       string // lock, unlock, trylock or tryunlock
	done       bool
	start, end sim.Time
	err        error
}

type sweepRun struct {
	m          *Manager
	ops        []*sweepOp
	err        error // the run's own error: a panic or a deadlock
	violations int
}

// runSweepScript runs s under plan (nil: fault-free) until sweepHorizon.
// A non-nil tracer sees every scheduler step.
func runSweepScript(s sweepScript, plan *faults.Plan, tracer func(sim.TraceEvent)) sweepRun {
	o := runtime.ServiceOptions{Faults: plan}
	env := o.NewEnv()
	defer env.Shutdown()
	env.SetTracer(tracer)
	nw := verbs.NewNetwork(env, o.Fabric())
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 1<<30)
	}
	run := sweepRun{m: New(nw, nodes, Options{Kind: s.kind, NumLocks: 2, LeaseTTL: s.lease})}
	inj := faults.Of(env)

	// held[lock][client] is the client's mode plus one, 0 if it holds
	// nothing; a holder on a crashed node is no longer counted.
	var held [2][3]int
	acquired := func(lock, c int, mode Mode) {
		for o, h := range held[lock] {
			if o != c && h != 0 && !inj.Down(o) && !inj.Down(c) && (mode == Exclusive || Mode(h-1) == Exclusive) {
				run.violations++
			}
		}
		held[lock][c] = int(mode) + 1
	}
	start := func(c int, name string) *sweepOp {
		op := &sweepOp{client: c, name: name, start: env.Now()}
		run.ops = append(run.ops, op)
		return op
	}
	end := func(op *sweepOp, err error) bool {
		op.done, op.end, op.err = true, env.Now(), err
		return err == nil
	}

	for c := range nodes {
		first, at, hold := s.mode, 10*time.Microsecond+time.Duration(c-1)*2*time.Microsecond, 10*time.Microsecond
		if c == 0 {
			first, at, hold = Exclusive, 0, 30*time.Microsecond
			if s.mode == Exclusive {
				first = Shared
			}
		}
		env.Go(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			cl := run.m.Client(c)
			p.SleepUntil(sim.Time(at))
			if !end(start(c, "lock"), cl.Lock(p, 0, first)) {
				return
			}
			acquired(0, c, first)
			p.Sleep(hold)
			held[0][c] = 0
			if !end(start(c, "unlock"), cl.Unlock(p, 0, first)) {
				return
			}
			op := start(c, "trylock")
			ok, err := cl.TryLock(p, 1, s.mode)
			if !end(op, err) || !ok {
				return
			}
			acquired(1, c, s.mode)
			held[1][c] = 0
			end(start(c, "tryunlock"), cl.Unlock(p, 1, s.mode))
		})
	}
	run.err = env.RunUntil(sim.Time(sweepHorizon))
	return run
}

// crashSweep runs the fault-free pass and the crash product of s, adding
// its outcome counts to table. The fault-free pass must end every op
// without an error and leave every per-lock record idle.
func crashSweep(t *testing.T, s sweepScript, table map[string]int) {
	var instants []sim.Time
	base := runSweepScript(s, nil, func(ev sim.TraceEvent) {
		if n := len(instants); n == 0 || instants[n-1] != ev.At {
			instants = append(instants, ev.At)
		}
	})
	type opKey struct {
		client int
		name   string
	}
	nominal := map[opKey]time.Duration{}
	for _, op := range base.ops {
		if !op.done || op.err != nil {
			t.Fatalf("%s: fault-free %s by client %d: done=%v err=%v", s.name, op.name, op.client, op.done, op.err)
		}
		nominal[opKey{op.client, op.name}] = time.Duration(op.end - op.start)
	}
	if base.err != nil || base.violations != 0 {
		t.Fatalf("%s: fault-free run: err=%v violations=%d", s.name, base.err, base.violations)
	}
	if err := auditIdle(base.m); err != nil {
		t.Fatalf("%s: fault-free run: %v", s.name, err)
	}

	for _, at := range instants {
		for n := 0; n < 3; n++ {
			plan := &faults.Plan{Events: []faults.Event{{At: time.Duration(at), Kind: faults.Crash, Node: n}}}
			r := runSweepScript(s, plan, nil)
			table[s.name+" run total"]++
			switch {
			case r.err != nil && strings.Contains(r.err.Error(), "panicked"):
				table[s.name+" run panic"]++
			case r.err != nil:
				table[s.name+" run error"]++
			}
			if r.violations > 0 {
				table[s.name+" run mutex-violations"] += r.violations
			}
			for _, op := range r.ops {
				class := "ok"
				nom, ran := nominal[opKey{op.client, op.name}]
				switch {
				case !op.done && op.client == n:
					class = "waiting/dead-caller"
				case !op.done:
					class = "waiting/live"
				case op.err == nil:
				case time.Duration(op.end-op.start) <= nom || !ran:
					class = "err<=nom"
				default:
					class = "err>nom"
				}
				table[s.name+" "+op.name+" "+class]++
			}
		}
	}
}

// TestCrashSweep pins the outcome table of every script under a crash of
// every node at every instant of its fault-free run. Under -short it
// runs one script per design and checks those scripts' rows.
func TestCrashSweep(t *testing.T) {
	scripts := sweepScripts
	if testing.Short() {
		scripts = []sweepScript{sweepScripts[1], sweepScripts[3], sweepScripts[7]}
	}
	table := map[string]int{}
	for _, s := range scripts {
		crashSweep(t, s, table)
	}
	rows := make([]string, 0, len(table))
	for k, n := range table {
		f := strings.Fields(k)
		rows = append(rows, fmt.Sprintf("%-24s %-10s %-20s %d", f[0], f[1], f[2], n))
	}
	sort.Strings(rows)
	got := strings.Join(rows, "\n") + "\n"

	raw, err := os.ReadFile("testdata/crashsweep.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, s := range scripts {
			if strings.HasPrefix(line, s.name+" ") {
				want = append(want, line)
			}
		}
	}
	if w := strings.Join(want, ""); got != w {
		t.Errorf("crash-sweep table moved; produced:\n%s\npinned:\n%s", got, w)
	}
}
