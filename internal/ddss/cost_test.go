package ddss

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
	"ngdc/internal/verbs"
)

// scriptOps is each model's cost contract: the one-sided operations an
// uncontended put and get issue, in order, with the bytes each moves (n
// is the operation's data size; an atomic moves one 8-byte word).
var scriptOps = []struct {
	coh      Coherence
	put, get string
}{
	{Null, "write(n)", "read(n)"},
	{Write, "cas write(n) write(8)", "read(n)"},
	{Read, "write(n) faa", "read(8) read(n) read(8)"},
	{Strict, "cas write(n) faa write(8)", "cas read(n) read(8) write(8)"},
	{Version, "write(n) faa", "read(8) read(n) read(8)"},
	{Delta, "faa write(n)", "read(8) read(n)"},
	{Temporal, "write(n) write(8)", "read(n)"},
}

// scriptCost is the uncontended latency of a script of n-byte data
// operations: the IPC charge plus each step's cost — on the wire when
// the segment is remote, a CPU atomic or a memory copy when it is home.
func scriptCost(t *testing.T, script string, n int, pp fabric.Params, home bool) time.Duration {
	d := IPCOverhead
	for _, s := range strings.Fields(script) {
		name, arg, _ := strings.Cut(strings.TrimSuffix(s, ")"), "(")
		size := n
		if arg != "n" && arg != "" {
			size, _ = strconv.Atoi(arg)
		}
		switch {
		case home && (name == "cas" || name == "faa"):
			d += localAtomicCost
		case home:
			d += pp.CopyTime(size)
		case name == "write":
			d += pp.IBWriteLatency + pp.IBTxTime(size)
		case name == "read":
			d += pp.IBReadLatency + pp.IBTxTime(size)
		case name == "cas", name == "faa":
			d += pp.IBAtomicLatency
		default:
			t.Fatalf("unknown script step %q", s)
		}
	}
	return d
}

// TestScriptCost checks each model's cost contract for put and get,
// remote and home, uncontended, under both calibrations at 1 B and 4 KiB:
// the verbs operations the trace registry's JSONL sink records equal
// scriptOps (none at home), and the latency equals scriptCost to the
// nanosecond.
func TestScriptCost(t *testing.T) {
	for _, cal := range []struct {
		name string
		pp   fabric.Params
	}{{"default", fabric.DefaultParams()}, {"iwarp", fabric.IWARPParams()}} {
		for _, n := range []int{1, 4096} {
			for _, sc := range scriptOps {
				for _, put := range []bool{true, false} {
					for _, home := range []bool{false, true} {
						script, kind := sc.put, "put"
						if !put {
							script, kind = sc.get, "get"
						}
						name := fmt.Sprintf("%s %dB %v %s home=%v", cal.name, n, sc.coh, kind, home)
						ops, lat := measureScript(t, cal.pp, n, sc.coh, put, home)
						wantOps := script
						if home {
							wantOps = ""
						}
						if ops != wantOps {
							t.Errorf("%s: issued %q, want %q", name, ops, wantOps)
						}
						if want := scriptCost(t, script, n, cal.pp, home); lat != want {
							t.Errorf("%s: took %v, want %v (%s)", name, lat, want, script)
						}
					}
				}
			}
		}
	}
}

// measureScript runs one uncontended operation from node 1 on an n-byte
// segment homed on node 0 (or on node 1 when home), after a seeding put,
// and returns the verbs operations it issued and its latency.
func measureScript(t *testing.T, pp fabric.Params, n int, coh Coherence, put, home bool) (string, time.Duration) {
	t.Helper()
	reg := trace.NewRegistry()
	var sink bytes.Buffer
	reg.SetSink(&sink)
	o := runtime.ServiceOptions{Trace: reg, Params: pp}
	env := o.NewEnv()
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, o.Fabric())
	nodes := []*cluster.Node{cluster.NewNode(env, 0, 2, 1<<30), cluster.NewNode(env, 1, 2, 1<<30)}
	ss := New(nw, nodes, Options{})
	at := 0
	if home {
		at = 1
	}
	var lat time.Duration
	env.Go("probe", func(p *sim.Proc) {
		h, err := ss.Client(1).Allocate(p, "seg", n, coh, at)
		buf := make([]byte, n)
		if err == nil {
			_, err = h.Put(p, buf)
		}
		if err != nil {
			t.Error(err)
			return
		}
		sink.Reset()
		start := p.Now()
		if put {
			_, err = h.Put(p, buf)
		} else {
			_, err = h.Get(p, buf)
		}
		if err != nil {
			t.Error(err)
		}
		lat = time.Duration(p.Now() - start)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		if line == "" {
			continue
		}
		var ev struct {
			Layer, Event string
			Bytes        int
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Layer != "verbs" {
			continue
		}
		switch {
		case ev.Event == verbs.OpCAS || ev.Event == verbs.OpFAA:
			ops = append(ops, ev.Event)
		case ev.Bytes == n:
			ops = append(ops, ev.Event+"(n)")
		default:
			ops = append(ops, fmt.Sprintf("%s(%d)", ev.Event, ev.Bytes))
		}
	}
	return strings.Join(ops, " "), lat
}
