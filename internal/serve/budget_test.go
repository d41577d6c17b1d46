package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"ngdc/internal/runtime"
	"ngdc/internal/sim"
)

// The hand-off budget of a simulated service request, by count. The
// script is the repository benchmark's svc-sim workload in small: 16
// sessions, one per node of a 16-node server, each a closed loop of the
// five-operation round (echo, put, get, lock, unlock) with locks drawn
// from 8 ids, every third exclusive.
//
// Two kinds of number are pinned. Model outputs — the final instant and
// every session's end instant and latency hash — are what the service
// computes; they move only when virtual time does, and a change that
// moves them is not a host optimisation. Engine counts — events, resumes
// and spawned processes — are what the host pays. Events and resumes are
// counted over a window of virtual time in the middle of the run: the
// sessions start in lockstep, all sixteen at every instant, and take
// some 20 ms to drift into the steady state the benchmark's 450 ms are
// spent in; connection set-up and tear-down stay outside it too.
const (
	budgetSessions = 16
	budgetRounds   = 1500
	budgetLockSpan = 8
	budgetKeys     = 64 // per session
	budgetFrom     = 30 * time.Millisecond
	budgetTo       = 50 * time.Millisecond
)

type budgetSession struct {
	ops     int
	latHash uint64 // FNV-1a over every request's virtual latency
	end     time.Duration
	err     error
	// op is the operation in progress; byOp counts finished ones by kind.
	op   budgetOp
	byOp [budgetOps]int
}

// budgetOp is a kind of request the script issues, for the per-operation
// resume breakdown.
type budgetOp int

const (
	opEcho budgetOp = iota
	opPut
	opGet
	opLockShared
	opLockExcl
	opUnlockShared
	opUnlockExcl
	budgetOps
)

var budgetOpNames = [budgetOps]string{"echo", "put", "get", "shared lock", "exclusive lock", "shared unlock", "exclusive unlock"}

// budgetScript is one session's closed loop.
func budgetScript(t runtime.Task, rt runtime.Runtime, s int, blocks [][]byte, res *budgetSession) {
	cl, err := Dial(rt, "ngdc")
	if err != nil {
		res.err = err
		return
	}
	defer cl.Close()
	res.latHash = 14695981039346656037
	last := t.Now()
	tick := func() {
		now := t.Now()
		res.latHash = (res.latHash ^ uint64(now-last)) * 1099511628211
		last = now
		res.ops++
		res.byOp[res.op]++
	}
	keys := make([]string, budgetKeys)
	for k := range keys {
		keys[k] = fmt.Sprintf("s%02d-k%02d", s, k)
	}
	for k := 0; k < budgetRounds && res.err == nil; k++ {
		payload := blocks[(s*31+k)%len(blocks)]
		key, val := keys[k%budgetKeys], blocks[(s*17+k*7)%len(blocks)]
		lock, excl := (s+k)%budgetLockSpan, (s+k)%3 == 0
		var x budgetOp // 1 for the exclusive form of lock and unlock
		if excl {
			x = 1
		}
		res.op = opEcho
		if got, err := cl.Echo(t, payload); err != nil || !bytes.Equal(got, payload) {
			res.err = fmt.Errorf("round %d: echo = %q, %v", k, got, err)
			return
		}
		tick()
		res.op = opPut
		if err := cl.Put(t, key, val); err != nil {
			res.err = fmt.Errorf("round %d: put: %w", k, err)
			return
		}
		tick()
		res.op = opGet
		if back, ok, err := cl.Get(t, key); err != nil || !ok || !bytes.Equal(back, val) {
			res.err = fmt.Errorf("round %d: get = %q, %v, %v", k, back, ok, err)
			return
		}
		tick()
		res.op = opLockShared + x
		if err := cl.Lock(t, lock, excl); err != nil {
			res.err = fmt.Errorf("round %d: lock: %w", k, err)
			return
		}
		tick()
		res.op = opUnlockShared + x
		if err := cl.Unlock(t, lock, excl); err != nil {
			res.err = fmt.Errorf("round %d: unlock: %w", k, err)
			return
		}
		tick()
	}
	res.end = t.Now()
}

// TestSimSessionHandOffBudget pins what the script costs and what it
// computes, and logs the window's resumes per request of each kind.
// Every resume is a session's: N-CoSED handles its messages where they
// land and polls its lock words with timer chains, so no service process
// runs. Edit the engine counts when a change means to move them; an
// instant or a hash that moves is a virtual-time change.
//
// The breakdown reads: a put and a get 1.00 each (their ddss chains hand
// the session back once), a lock or an unlock 1.01–1.15 (the dlm round
// trip parks per step) and an echo none.
func TestSimSessionHandOffBudget(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	rt := runtime.NewSim(env)
	srv := New(rt, Options{Nodes: budgetSessions})
	ln, err := rt.Listen("ngdc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	// Echo payloads and put values: 256 blocks of 64 seeded bytes.
	rng := rand.New(rand.NewSource(1))
	blocks := make([][]byte, 256)
	for i := range blocks {
		blocks[i] = make([]byte, 64)
		rng.Read(blocks[i])
	}
	sess := make([]budgetSession, budgetSessions)
	for s := range sess {
		s := s
		rt.Go(fmt.Sprintf("session-%d", s), func(tk runtime.Task) { budgetScript(tk, rt, s, blocks, &sess[s]) })
	}
	done := func() (n int, byOp [budgetOps]int) {
		for s := range sess {
			n += sess[s].ops
			for k, c := range sess[s].byOp {
				byOp[k] += c
			}
		}
		return n, byOp
	}
	tally := budgetResumes(env, sess)
	if err := env.RunUntil(sim.Time(budgetFrom)); err != nil {
		t.Fatal(err)
	}
	from := env.Stats()
	fromOps, fromBy := done()
	if err := env.RunUntil(sim.Time(budgetTo)); err != nil {
		t.Fatal(err)
	}
	to := env.Stats()
	toOps, toBy := done()
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	var model string
	for s := range sess {
		if sess[s].err != nil {
			t.Fatalf("session %d: %v", s, sess[s].err)
		}
		model += fmt.Sprintf("%d:%d:%d:%x\n", s, sess[s].ops, sess[s].end, sess[s].latHash)
	}
	model += fmt.Sprintf("end=%d", env.Now())
	if model != budgetModel {
		t.Errorf("model outputs moved (a virtual-time change):\n%s\nwant:\n%s", model, budgetModel)
	}

	reqs := toOps - fromOps
	events, resumes := to.EventsProcessed-from.EventsProcessed, to.Resumes-from.Resumes
	t.Logf("window %s..%s: %d requests, %d events (%.4f/request), %d resumes (%.4f/request); %d processes spawned in all",
		budgetFrom, budgetTo, reqs, events, float64(events)/float64(reqs), resumes, float64(resumes)/float64(reqs), env.Stats().ProcsSpawned)
	if reqs != budgetWindowRequests || events != budgetWindowEvents {
		t.Errorf("window holds %d requests and %d events, want %d and %d: the schedule moved", reqs, events, budgetWindowRequests, budgetWindowEvents)
	}
	if resumes != budgetWindowResumes {
		t.Errorf("window costs %d resumes (%.4f/request), want %d", resumes, float64(resumes)/float64(reqs), budgetWindowResumes)
	}
	if got := env.Stats().ProcsSpawned; got != budgetProcsSpawned {
		t.Errorf("%d processes spawned, want %d", got, budgetProcsSpawned)
	}

	// Whose request the window's resumes served: per finished request of
	// the kind the resumed session was serving.
	var perOp []string
	var sum uint64
	for k, n := range tally.byOp {
		sum += n
		perOp = append(perOp, fmt.Sprintf("%s %.2f", budgetOpNames[k], float64(n)/float64(toBy[k]-fromBy[k])))
	}
	t.Logf("resumes per request: %s", strings.Join(perOp, ", "))
	if len(tally.others) > 0 {
		t.Errorf("%d resumes of processes other than the sessions: %v", len(tally.others), tally.others)
	}
	if sum+uint64(len(tally.others)) != resumes {
		t.Errorf("the breakdown attributes %d resumes, the window has %d", sum+uint64(len(tally.others)), resumes)
	}
}

// resumeTally is the window's resumes by the request they served, and
// the name of each other process resumed, once per resume.
type resumeTally struct {
	byOp   [budgetOps]uint64
	others []string
}

// budgetResumes attributes every resume in the window to the operation
// the resumed session was serving, and records the name of any other
// process resumed. The run loop counts a resume just after it traces
// TraceProcResumed (a process that consumes its own wake without
// yielding is traced the same way and is no resume), so the tracer
// settles each resumed event when it sees the next one. A tracer changes
// neither the schedule nor the counters.
func budgetResumes(env *sim.Env, sess []budgetSession) *resumeTally {
	tally := &resumeTally{}
	var (
		count func()
		at    sim.Time
		seen  uint64
	)
	env.SetTracer(func(ev sim.TraceEvent) {
		if r := env.Stats().Resumes; r != seen {
			seen = r
			if at > sim.Time(budgetFrom) && at <= sim.Time(budgetTo) {
				count()
			}
		}
		if ev.Kind != sim.TraceProcResumed {
			return
		}
		at = ev.At
		if s, err := strconv.Atoi(strings.TrimPrefix(ev.Proc, "session-")); err == nil {
			op := &tally.byOp[sess[s].op]
			count = func() { *op++ }
			return
		}
		name := ev.Proc
		count = func() { tally.others = append(tally.others, name) }
	})
	return tally
}

// What the host pays. The first two lines are the schedule and do not
// change with who executes it; the last two are the hand-off.
const (
	budgetWindowRequests = 42010
	budgetWindowEvents   = 210957 // 5.02 per request (211169 with N-CoSED's receive daemons, each message waking one)
	budgetWindowResumes  = 34743  // 0.83 per request: a put (IPC charge, lock CAS, data write, unlock write) and a get (IPC charge, read) each ride one ddss chain and resume once (35268 with N-CoSED's receive daemons and home poller processes; 58737, 1.40, with a park per put step; 65395, 1.56, with one per get step too; 149135, 3.55, with a handler process per connection)
	budgetProcsSpawned   = 16     // the sessions (305 with N-CoSED's 32 receive daemons and 257 poller processes; 322 with an accept loop and 16 handlers too)
)

// What the service computes: session:ops:end:latency-hash, then the
// final instant. Not to be edited by a host-side change.
const budgetModel = `0:7500:57059045:baa8a270ec7cf924
1:7500:56964652:ae6d8a1f8e72cf09
2:7500:57251036:7923c283f6623647
3:7500:57082798:3c4ab32291404ceb
4:7500:56829910:1e16d1106d8dfaff
5:7500:57204917:eecdec164e1f8f86
6:7500:57079913:8204f7ec595fab78
7:7500:56996964:1f27258693d3eb95
8:7500:57793932:26fdc70c9620f05f
9:7500:57460357:bb3060228b708518
10:7500:57374121:943a5e510d9d3174
11:7500:56940956:975d0fe8ddb80b29
12:7500:57346821:238716de731c0c14
13:7500:56930512:4fcdc82f780d154f
14:7500:57322300:aa4334981cdcd743
15:7500:56914402:b1fee1de7ed61c0f
end=57793932`
