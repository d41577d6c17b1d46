package verbs

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// Timeline pin: eight processes on one device interleave 4 KiB writes,
// 4 KiB reads and compare-and-swaps against two targets, so the issuer's
// Tx engine (writes) and the targets' (read responses) both contend. The
// transcript — per op: issue and completion instant, bytes read or old
// value, error reason — plus the engine's event count, the streamed
// per-op trace events and the registry snapshot are compared byte for
// byte with testdata/timeline_*.golden, captured before the blocking
// calls moved onto the posted-WR chain. The goldens are not regenerated
// by the test: a mismatch prints what was produced.

const (
	tlProcs  = 8
	tlRounds = 12
	tlPage   = 4096
	tlSlots  = 4
	tlWord   = tlSlots * tlPage // byte offset of the CAS word
)

// Fault plan of the second run. Target 2 dies while reads and atomics
// addressed to it are between issue and their mid-chain instant; the
// issuer dies while its own writes are between end-of-serialization and
// placement, with more writers still queued on its Tx engine.
const (
	tlCrashTarget   = 14 * time.Microsecond
	tlRestartTarget = 40 * time.Microsecond
	tlCrashIssuer   = 47 * time.Microsecond
	tlRestartIssuer = 52 * time.Microsecond
)

type tlOp struct {
	kind        string
	target      int
	issue, done sim.Time
	reason      string
}

func runTimeline(t *testing.T, plan *faults.Plan) (string, []tlOp) {
	t.Helper()
	env := sim.NewEnv(1)
	reg := trace.NewRegistry()
	trace.AttachRegistry(env, reg)
	var events bytes.Buffer
	reg.SetSink(&events)
	if plan != nil {
		faults.Install(env, plan)
	}
	nw := NewNetwork(env, fabric.DefaultParams())
	devs := make([]*Device, 3)
	for i := range devs {
		devs[i] = nw.Attach(cluster.NewNode(env, i, 4, 1<<30))
	}
	addr := [3]RemoteAddr{}
	for n := 1; n <= 2; n++ {
		addr[n] = devs[n].RegisterAtSetup(make([]byte, tlWord+8)).Addr()
	}

	var out strings.Builder
	var ops []tlOp
	for i := 0; i < tlProcs; i++ {
		env.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			var seen [3]uint64
			buf := make([]byte, tlPage)
			for r := 0; r < tlRounds; r++ {
				tgt := 1 + (i+r/2)%2
				op := tlOp{target: tgt, issue: p.Now()}
				var err error
				var result string
				switch (i + r) % 3 {
				case 0:
					op.kind = "write"
					for k := range buf {
						buf[k] = byte(16*i + r + 1)
					}
					err = devs[0].Write(p, addr[tgt], (i%tlSlots)*tlPage, buf)
				case 1:
					op.kind = "read"
					err = devs[0].Read(p, buf, addr[tgt], ((i+1)%tlSlots)*tlPage)
					h := fnv.New64a()
					h.Write(buf)
					result = fmt.Sprintf(" first=%#02x last=%#02x sum=%016x", buf[0], buf[tlPage-1], h.Sum64())
				case 2:
					op.kind = "cas"
					swap := uint64(i+1)<<8 | uint64(r)
					var old uint64
					old, err = devs[0].CompareSwap(p, addr[tgt], tlWord, seen[tgt], swap)
					result = fmt.Sprintf(" cmp=%#x swap=%#x old=%#x", seen[tgt], swap, old)
					if err == nil {
						if old == seen[tgt] {
							seen[tgt] = swap
						} else {
							seen[tgt] = old
						}
					}
				}
				op.done = p.Now()
				if err != nil {
					op.reason = opReason(t, err)
					result = fmt.Sprintf(" err=%q", op.reason)
				}
				ops = append(ops, op)
				fmt.Fprintf(&out, "p%d r%d %-5s t%d issue=%d done=%d%s\n",
					i, r, op.kind, tgt, int64(op.issue), int64(op.done), result)
				p.Sleep(time.Microsecond + time.Duration(i)*100*time.Nanosecond)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "events_processed=%d end=%d\n", env.Stats().EventsProcessed, int64(env.Now()))
	for n, d := range devs {
		fmt.Fprintf(&out, "dev%d reads=%d writes=%d atomics=%d\n", n, d.Reads, d.Writes, d.Atomics)
	}
	for n := 1; n <= 2; n++ {
		mr := devs[n].mrs[addr[n].Key]
		h := fnv.New64a()
		h.Write(mr.buf)
		fmt.Fprintf(&out, "mem%d word=%#x sum=%016x\n", n, mr.Uint64At(tlWord), h.Sum64())
	}
	out.WriteString("-- trace events --\n")
	out.Write(events.Bytes())
	out.WriteString("-- trace snapshot --\n")
	if err := reg.Snapshot().WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	return out.String(), ops
}

func checkTimelineGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("%v\n--- produced ---\n%s", err, got)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of golden>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s\n--- produced ---\n%s", name, i+1, gl[i], w, got)
		}
	}
	t.Fatalf("%s: produced transcript is a strict prefix of the golden", name)
}

func TestVerbsTimelinePinnedHealthy(t *testing.T) {
	got, ops := runTimeline(t, nil)
	for _, op := range ops {
		if op.reason != "" {
			t.Fatalf("healthy run failed a %s: %s", op.kind, op.reason)
		}
	}
	checkTimelineGolden(t, "timeline_healthy.golden", got)
}

func TestVerbsTimelinePinnedFaulted(t *testing.T) {
	got, ops := runTimeline(t, &faults.Plan{Seed: 7, Events: []faults.Event{
		{At: tlCrashTarget, Kind: faults.Crash, Node: 2},
		{At: tlRestartTarget, Kind: faults.Restart, Node: 2},
		{At: tlCrashIssuer, Kind: faults.Crash, Node: 0},
		{At: tlRestartIssuer, Kind: faults.Restart, Node: 0},
	}})
	// The plan must keep hitting the windows it was written for, whatever
	// happens to the cost model: ops caught in flight by the target crash,
	// and writes that lose their issuer before the placement instant.
	var midFlight, placement, recovered bool
	for _, op := range ops {
		crashAt, downAt := sim.Time(tlCrashTarget), sim.Time(tlCrashIssuer)
		switch {
		case op.kind != "write" && op.target == 2 && op.reason == "peer unreachable" &&
			op.issue < crashAt && op.done > crashAt:
			midFlight = true
		case op.kind == "write" && op.reason == "local device down" &&
			op.issue < downAt && op.done > downAt:
			placement = true
		case op.reason == "" && op.issue >= sim.Time(tlRestartIssuer):
			recovered = true
		}
	}
	if !midFlight || !placement || !recovered {
		t.Errorf("fault plan missed its windows: mid-flight target loss %v, issuer lost before placement %v, ops after restart %v",
			midFlight, placement, recovered)
	}
	checkTimelineGolden(t, "timeline_faulted.golden", got)
}
