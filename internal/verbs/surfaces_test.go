package verbs

import (
	"bytes"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// surfOp is one one-sided operation of the surfaces script, issued from
// device 0 at instant at (nanoseconds). Ops sharing a non-zero batch id
// are consecutive, share their issue instant and go out through one
// PostList on the posted surface (one process each on the blocking and
// issued surfaces).
type surfOp struct {
	at        time.Duration
	op        string
	target    RemoteAddr // zero Key: filled in with the target node's region
	off, n    int
	fill      byte
	cmp, swap uint64
	batch     int
}

type surfResult struct {
	done   sim.Time
	old    uint64
	reason string
	read   []byte
}

type surfOutcome struct {
	results                []surfResult
	mem                    [2][]byte
	reads, writes, atomics int64
	trace                  string
	engine                 surfEngine
}

// surfEngine is what a surface run cost the engine: events processed,
// process resumes and the instant the run ended.
type surfEngine struct {
	events, resumes uint64
	end             sim.Time
}

// surfScript covers every validation failure, Tx contention on the
// issuer (the write batch and the writes around it) and on a target (two
// reads at one instant), and — under surfPlan — a target lost between
// issue and the mid-chain instant, a target lost between a write's
// serialization and its placement, and the issuer lost before a write's
// placement instant. Issue instants are chosen off every in-flight
// event's instant: a posted request starts one event later than a
// blocking call at the same instant, which only matters on an exact tie.
func surfScript() []surfOp {
	t1, t2 := RemoteAddr{Node: 1}, RemoteAddr{Node: 2}
	return []surfOp{
		{at: 101, op: OpWrite, target: t1, off: 0, n: 4096, fill: 0x11},
		{at: 203, op: OpWrite, target: t2, off: 4096, n: 4096, fill: 0x22},
		{at: 307, op: OpCAS, target: t1, off: 8192, cmp: 0, swap: 7},
		{at: 409, op: OpFAA, target: t1, off: 8192, swap: 5},
		{at: 503, op: OpRead, target: t1, off: 0, n: 4096},
		{at: 503, op: OpRead, target: t1, off: 2048, n: 4096},
		// Validation failures: no time passes, nothing is counted.
		{at: 1009, op: OpRead, target: RemoteAddr{Node: 9, Key: 1}, n: 8},
		{at: 1013, op: OpWrite, target: RemoteAddr{Node: 1, Key: 99}, n: 8},
		{at: 1019, op: OpWrite, target: t1, off: 8205, n: 8},
		{at: 1021, op: OpCAS, target: t1, off: 4, cmp: 0, swap: 1},
		{at: 1031, op: OpFAA, target: t1, off: 8208, swap: 1},
		// A doorbell batch of writes queues on the issuer's Tx engine.
		{at: 20011, op: OpWrite, target: t1, off: 0, n: 4096, fill: 0x31, batch: 1},
		{at: 20011, op: OpWrite, target: t2, off: 0, n: 4096, fill: 0x32, batch: 1},
		{at: 20011, op: OpWrite, target: t1, off: 4096, n: 2048, fill: 0x33, batch: 1},
		{at: 21017, op: OpCAS, target: t2, off: 8192, cmp: 0, swap: 9},
		// surfPlan crashes node 2 at 41µs: the read and the atomic are in
		// flight to it, the write has serialized and not yet placed.
		{at: 37007, op: OpWrite, target: t2, off: 0, n: 1024, fill: 0x41},
		{at: 39003, op: OpRead, target: t2, off: 4096, n: 512},
		{at: 39509, op: OpFAA, target: t2, off: 8192, swap: 1},
		{at: 42001, op: OpWrite, target: t2, off: 0, n: 64, fill: 0x42},
		{at: 42003, op: OpRead, target: t1, off: 4096, n: 4096},
		// surfPlan downs the issuer at 61µs: the first write has left the
		// wire and not yet placed, the second is still queued behind it, the
		// read is before its mid-chain instant; then ops issued while down.
		{at: 55001, op: OpWrite, target: t1, off: 0, n: 4096, fill: 0x51},
		{at: 55003, op: OpWrite, target: t1, off: 4096, n: 4096, fill: 0x52},
		{at: 59001, op: OpRead, target: t1, off: 0, n: 64},
		{at: 62001, op: OpCAS, target: t1, off: 8192, cmp: 12, swap: 13},
		{at: 62003, op: OpWrite, target: t1, off: 0, n: 8, fill: 0x61},
		// After both restarts: cold target memory, working paths.
		{at: 90001, op: OpWrite, target: t2, off: 0, n: 4096, fill: 0x71},
		{at: 90003, op: OpRead, target: t2, off: 4096, n: 64},
		{at: 90007, op: OpFAA, target: t1, off: 8192, swap: 100},
	}
}

func surfPlan() *faults.Plan {
	return &faults.Plan{Seed: 3, Events: []faults.Event{
		{At: 41 * time.Microsecond, Kind: faults.Crash, Node: 2},
		{At: 61 * time.Microsecond, Kind: faults.Crash, Node: 0},
		{At: 80 * time.Microsecond, Kind: faults.Restart, Node: 2},
		{At: 81 * time.Microsecond, Kind: faults.Restart, Node: 0},
	}}
}

// The three ways to complete the one work-request record.
const (
	surfBlocking = "blocking" // Device.Read/Write/CompareSwap/FetchAdd
	surfPosted   = "posted"   // PostList into a polled CQ
	surfIssued   = "issued"   // Device.Issue into a handler CQ
)

func runSurface(t *testing.T, plan *faults.Plan, surface string) surfOutcome {
	t.Helper()
	env := sim.NewEnv(1)
	reg := trace.NewRegistry()
	trace.AttachRegistry(env, reg)
	if plan != nil {
		faults.Install(env, plan)
	}
	nw := NewNetwork(env, fabric.DefaultParams())
	devs := make([]*Device, 3)
	for i := range devs {
		devs[i] = nw.Attach(cluster.NewNode(env, i, 4, 1<<30))
	}
	var mrs [3]*MR
	for n := 1; n <= 2; n++ {
		mrs[n] = devs[n].RegisterAtSetup(make([]byte, 8192+16))
	}
	script := surfScript()
	res := make([]surfResult, len(script))
	for i := 0; i < len(script); {
		j := i + 1
		for surface == surfPosted && script[i].batch != 0 && j < len(script) && script[j].batch == script[i].batch {
			j++
		}
		first, group := i, script[i:j]
		i = j
		env.Go(fmt.Sprintf("op%d", first), func(p *sim.Proc) {
			p.SleepUntil(sim.Time(group[0].at))
			wrs := make([]WR, len(group))
			for k, o := range group {
				r := o.target
				if r.Key == 0 {
					r = mrs[r.Node].Addr()
				}
				wrs[k] = WR{ID: uint64(first + k), Op: o.op, Target: r, Off: o.off,
					Compare: o.cmp, Swap: o.swap, Delta: o.swap}
				switch o.op {
				case OpRead:
					wrs[k].Dst = make([]byte, o.n)
					res[first+k].read = wrs[k].Dst
				case OpWrite:
					wrs[k].Src = bytes.Repeat([]byte{o.fill}, o.n)
				}
			}
			finish := func(k int, old uint64, err error) {
				r := &res[first+k]
				r.done, r.old = env.Now(), old
				if err != nil {
					r.reason = opReason(t, err)
				}
			}
			switch surface {
			case surfIssued:
				// The handler runs in scheduler context at the completion
				// instant (inside Issue for a validation failure); the
				// process has nothing left to wait for.
				w := wrs[0]
				devs[0].Issue(HandlerCQ(func(c Completion) {
					if c.ID != w.ID || c.Op != w.Op {
						t.Errorf("completion of op %d: got id=%d op=%s", first, c.ID, c.Op)
					}
					finish(0, c.Old, c.Err)
				}), w)
				return
			case surfBlocking:
				w, d := wrs[0], devs[0]
				var old uint64
				var err error
				switch w.Op {
				case OpRead:
					err = d.Read(p, w.Dst, w.Target, w.Off)
				case OpWrite:
					err = d.Write(p, w.Target, w.Off, w.Src)
				case OpCAS:
					old, err = d.CompareSwap(p, w.Target, w.Off, w.Compare, w.Swap)
				case OpFAA:
					old, err = d.FetchAdd(p, w.Target, w.Off, w.Delta)
				}
				finish(0, old, err)
				return
			}
			cq := devs[0].CreateCQ(fmt.Sprintf("cq%d", first), len(wrs))
			devs[0].PostList(cq, wrs)
			for k := range wrs {
				c := cq.Poll(p)
				if c.ID != wrs[k].ID || c.Op != wrs[k].Op {
					t.Errorf("completion %d of op %d: got id=%d op=%s", k, first, c.ID, c.Op)
				}
				finish(k, c.Old, c.Err)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := env.Stats()
	out := surfOutcome{results: res, reads: devs[0].Reads, writes: devs[0].Writes, atomics: devs[0].Atomics,
		engine: surfEngine{events: st.EventsProcessed, resumes: st.Resumes, end: env.Now()}}
	for n := 1; n <= 2; n++ {
		out.mem[n-1] = mrs[n].Bytes()
	}
	snap := reg.Snapshot()
	out.trace = fmt.Sprintf("dev=%+v nics=%+v fabric=%+v", snap.Devices, snap.NICs, snap.Fabric)
	return out
}

// TestBlockingAndPostedAreOneMachine issues one op list through the
// blocking Device calls, through PostList into a polled CQ and
// through Issue into a handler CQ, each in its own environment:
// completion instants, returned values, error reasons, target memory, op
// counters and the device/NIC/fabric trace must all agree, healthy and
// under a fault plan. The posted run's engine cost is pinned as literals,
// so how a single work request is posted cannot move an event, a resume
// or the end instant unnoticed.
func TestBlockingAndPostedAreOneMachine(t *testing.T) {
	script := surfScript()
	for _, tc := range []struct {
		name   string
		plan   *faults.Plan
		want   map[string]bool // reasons the run must produce
		posted surfEngine
	}{
		{"healthy", nil, map[string]bool{"no such node": true, "invalid rkey": true,
			"out of bounds": true, "bad atomic offset": true},
			surfEngine{events: 164, resumes: 80, end: 98052}},
		{"faulted", surfPlan(), map[string]bool{"peer unreachable": true, "local device down": true},
			surfEngine{events: 159, resumes: 80, end: 98052}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blk := runSurface(t, tc.plan, surfBlocking)
			for _, b := range blk.results {
				delete(tc.want, b.reason)
			}
			for reason := range tc.want {
				t.Errorf("script never produced %q", reason)
			}
			for _, surface := range []string{surfPosted, surfIssued} {
				got := runSurface(t, tc.plan, surface)
				if surface == surfPosted && got.engine != tc.posted {
					t.Errorf("posted engine cost %+v, want %+v", got.engine, tc.posted)
				}
				for i, b := range blk.results {
					o, g := script[i], got.results[i]
					if b.done != g.done || b.old != g.old || b.reason != g.reason || !bytes.Equal(b.read, g.read) {
						t.Errorf("op %d (%s at %v): blocking done=%d old=%d reason=%q, %s done=%d old=%d reason=%q, read equal=%v",
							i, o.op, o.at, b.done, b.old, b.reason, surface, g.done, g.old, g.reason, bytes.Equal(b.read, g.read))
					}
					// The placement-instant check names the failing side on
					// every surface: the first write of the 55µs pair has
					// left the wire when the issuer dies.
					if tc.plan != nil && o.op == OpWrite && o.at == 55001 && g.reason != "local device down" {
						t.Errorf("%s write losing its issuer before placement: reason %q, want %q",
							surface, g.reason, "local device down")
					}
				}
				for n := range blk.mem {
					if !bytes.Equal(blk.mem[n], got.mem[n]) {
						t.Errorf("target %d memory differs between blocking and %s", n+1, surface)
					}
				}
				if blk.reads != got.reads || blk.writes != got.writes || blk.atomics != got.atomics {
					t.Errorf("counters: blocking %d/%d/%d, %s %d/%d/%d reads/writes/atomics",
						blk.reads, blk.writes, blk.atomics, surface, got.reads, got.writes, got.atomics)
				}
				if blk.trace != got.trace {
					t.Errorf("trace differs:\nblocking %s\n%-8s %s", blk.trace, surface, got.trace)
				}
			}
		})
	}
}

// TestWorkReqWordBudget gates the record every one-sided operation rides
// at 28 words. The 1024-device E18 cell keeps thousands of them warm, and
// a 35-word record measured 6 % slower there over 8 alternating pairs (PR
// 15); a third way to complete the record has to fit the fields it has.
func TestWorkReqWordBudget(t *testing.T) {
	if got := unsafe.Sizeof(workReq{}); got > 28*8 {
		t.Fatalf("workReq is %d bytes (%d words), budget 28 words", got, got/8)
	}
}
