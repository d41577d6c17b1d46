package trace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
	"ngdc/internal/verbs"
)

// tracedRun drives a small verbs exchange from node client to node
// server, attached in that order, with a registry attached and returns
// the resulting snapshot.
func tracedRun(t *testing.T, seed int64, client, server int) trace.TraceStats {
	t.Helper()
	env := sim.NewEnv(seed)
	defer env.Shutdown()
	r := trace.NewRegistry()
	trace.AttachRegistry(env, r)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	a := nw.Attach(cluster.NewNode(env, client, 2, 1<<20))
	b := nw.Attach(cluster.NewNode(env, server, 2, 1<<20))
	mr := b.RegisterAtSetup(make([]byte, 4096))
	addr := mr.Addr()
	q := b.Bind("svc")
	env.Go("client", func(p *sim.Proc) {
		buf := make([]byte, 1024)
		for i := 0; i < 8; i++ {
			if err := a.Read(p, buf, addr, 0); err != nil {
				t.Errorf("read: %v", err)
			}
			if err := a.Write(p, addr, 0, buf); err != nil {
				t.Errorf("write: %v", err)
			}
			if _, err := a.FetchAdd(p, addr, 0, 1); err != nil {
				t.Errorf("fetch-add: %v", err)
			}
			if err := a.Send(p, q, buf[:32]); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	env.Go("server", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			q.Recv(p)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return r.Snapshot()
}

func TestSnapshotCountsVerbs(t *testing.T) {
	s := tracedRun(t, 1, 0, 1)
	if len(s.Devices) != 2 {
		t.Fatalf("device counters for %d nodes, want 2", len(s.Devices))
	}
	d := s.Devices[0]
	for _, v := range []struct {
		op string
		st trace.VerbStats
	}{{"read", d.Read}, {"write", d.Write}, {"atomic", d.Atomic}, {"send", d.Send}} {
		if v.st.Ops != 8 {
			t.Errorf("%s ops = %d, want 8", v.op, v.st.Ops)
		}
		if v.st.Lat.N() != 8 || v.st.Lat.Mean() <= 0 {
			t.Errorf("%s latency summary: n=%d mean=%v", v.op, v.st.Lat.N(), v.st.Lat.Mean())
		}
	}
	if d.Read.Bytes != 8*1024 || d.Atomic.Bytes != 8*8 || d.Send.Bytes != 8*32 {
		t.Errorf("bytes: read=%d atomic=%d send=%d", d.Read.Bytes, d.Atomic.Bytes, d.Send.Bytes)
	}
	if got := s.VerbsOps(); got != 32 {
		t.Errorf("VerbsOps = %d, want 32", got)
	}
	if got := s.VerbsBytes(); got != 8*(1024+1024+8+32) {
		t.Errorf("VerbsBytes = %d", got)
	}
	// The client's NIC serialized every outbound transfer.
	if n := s.NICs[0]; n.TxOps == 0 || n.TxBusy == 0 {
		t.Errorf("nic 0: %+v", n)
	}
	// Fabric accounting saw every op class the run used.
	for _, c := range []trace.OpClass{trace.OpRDMARead, trace.OpRDMAWrite, trace.OpRDMAAtomic, trace.OpSend} {
		if s.Fabric[c].Ops != 8 {
			t.Errorf("fabric[%s].Ops = %d, want 8", c, s.Fabric[c].Ops)
		}
		if s.Fabric[c].Wire <= 0 {
			t.Errorf("fabric[%s].Wire = %v", c, s.Fabric[c].Wire)
		}
	}
	if s.Engine.Envs != 1 || s.Engine.EventsProcessed == 0 || s.Engine.Resumes == 0 {
		t.Errorf("engine: %+v", s.Engine)
	}
}

// Equal seeds must yield byte-identical snapshots: the registry observes a
// deterministic simulation and adds no nondeterminism of its own.
func TestSnapshotDeterministic(t *testing.T) {
	a, b := tracedRun(t, 7, 0, 1), tracedRun(t, 7, 0, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different snapshots:\n%+v\n%+v", a, b)
	}
	var ja, jb bytes.Buffer
	if err := a.WriteJSONL(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatal("JSONL output not deterministic")
	}
}

// TestWriteJSONLWellFormed also runs on sparse node IDs attached out of
// order (3, then 1; no 0 or 2): the records come out in node order, the
// holes print nothing, and folding the snapshot into a fresh registry
// reproduces the same JSONL.
func TestWriteJSONLWellFormed(t *testing.T) {
	for _, ids := range [][2]int{{0, 1}, {3, 1}} {
		s := tracedRun(t, 3, ids[0], ids[1])
		var buf bytes.Buffer
		if err := s.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		records := map[string]int{}
		nodes := map[string][]int{}
		for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("invalid JSON line %q: %v", line, err)
			}
			rec, _ := m["record"].(string)
			records[rec]++
			if n, ok := m["node"].(float64); ok {
				nodes[rec] = append(nodes[rec], int(n))
			}
		}
		for _, want := range []string{"verbs", "nic", "fabric", "engine"} {
			if records[want] == 0 {
				t.Errorf("nodes %v: no %q records in output:\n%s", ids, want, buf.String())
			}
		}
		if records["engine"] != 1 {
			t.Errorf("nodes %v: engine records = %d, want 1", ids, records["engine"])
		}
		// The server's NIC serializes the read responses, the client's
		// everything else; the client alone issues verbs.
		lo, hi := min(ids[0], ids[1]), max(ids[0], ids[1])
		if got := nodes["nic"]; !reflect.DeepEqual(got, []int{lo, hi}) {
			t.Errorf("nodes %v: nic records for nodes %v, want [%d %d]", ids, got, lo, hi)
		}
		for _, n := range nodes["verbs"] {
			if n != ids[0] {
				t.Errorf("nodes %v: verbs record for node %d", ids, n)
			}
		}

		r := trace.NewRegistry()
		r.Fold(s)
		var folded bytes.Buffer
		if err := r.Snapshot().WriteJSONL(&folded); err != nil {
			t.Fatal(err)
		}
		if folded.String() != buf.String() {
			t.Errorf("nodes %v: folded snapshot prints\n%s\nwant\n%s", ids, folded.String(), buf.String())
		}
	}
}

func TestMergeSumsCounters(t *testing.T) {
	a, b := tracedRun(t, 1, 0, 1), tracedRun(t, 2, 0, 1)
	m := a.Merge(b)
	if got := m.VerbsOps(); got != a.VerbsOps()+b.VerbsOps() {
		t.Errorf("merged VerbsOps = %d, want %d", got, a.VerbsOps()+b.VerbsOps())
	}
	if got := m.VerbsBytes(); got != a.VerbsBytes()+b.VerbsBytes() {
		t.Errorf("merged VerbsBytes = %d", got)
	}
	if m.Engine.Envs != 2 ||
		m.Engine.EventsProcessed != a.Engine.EventsProcessed+b.Engine.EventsProcessed ||
		m.Engine.Resumes != a.Engine.Resumes+b.Engine.Resumes {
		t.Errorf("merged engine: %+v", m.Engine)
	}
	ma, aa, bb := m.Devices[0].Read.Lat, a.Devices[0].Read.Lat, b.Devices[0].Read.Lat
	if ma.N() != aa.N()+bb.N() {
		t.Error("merged latency summary lost observations")
	}
	if m.Fabric[trace.OpRDMARead].Ops != a.Fabric[trace.OpRDMARead].Ops+b.Fabric[trace.OpRDMARead].Ops {
		t.Error("merged fabric ops wrong")
	}
	// Merging with a zero snapshot is the identity on counters.
	id := a.Merge(trace.TraceStats{})
	if id.VerbsOps() != a.VerbsOps() || id.Engine.EventsProcessed != a.Engine.EventsProcessed {
		t.Error("merge with empty snapshot changed counters")
	}
}

// A registry surviving across environments (an experiment sweep) folds
// each retired environment's engine counters into the snapshot.
func TestReattachFoldsEngineStats(t *testing.T) {
	r := trace.NewRegistry()
	env1 := sim.NewEnv(1)
	trace.AttachRegistry(env1, r)
	env1.Go("tick", func(p *sim.Proc) { p.Sleep(time.Microsecond) })
	if err := env1.Run(); err != nil {
		t.Fatal(err)
	}
	ev1, res1 := env1.Stats().EventsProcessed, env1.Stats().Resumes

	env2 := sim.NewEnv(2)
	trace.AttachRegistry(env2, r)
	env1.Shutdown()
	env2.Go("tick", func(p *sim.Proc) { p.Sleep(time.Microsecond) })
	if err := env2.Run(); err != nil {
		t.Fatal(err)
	}
	defer env2.Shutdown()

	s := r.Snapshot()
	if s.Engine.Envs != 2 {
		t.Fatalf("envs = %d, want 2", s.Engine.Envs)
	}
	if s.Engine.EventsProcessed != ev1+env2.Stats().EventsProcessed {
		t.Fatalf("events = %d, want %d", s.Engine.EventsProcessed,
			ev1+env2.Stats().EventsProcessed)
	}
	if s.Engine.Resumes != res1+env2.Stats().Resumes {
		t.Fatalf("resumes = %d, want %d", s.Engine.Resumes, res1+env2.Stats().Resumes)
	}
	// Re-attaching the same env is a no-op, not a double-fold.
	trace.AttachRegistry(env2, r)
	if got := r.Snapshot().Engine.Envs; got != 2 {
		t.Fatalf("envs after re-attach = %d, want 2", got)
	}
}

func TestAttachNilAndOf(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	trace.AttachRegistry(env, nil) // must be a no-op
	if trace.Of(env) != nil {
		t.Fatal("Of returned a registry after nil attach")
	}
	r := trace.Attach(env)
	if r == nil || trace.Of(env) != r {
		t.Fatal("Attach did not bind a registry")
	}
	if trace.Attach(env) != r {
		t.Fatal("second Attach created a new registry")
	}
}

// An untraced run constructs fine and records nothing: instrumented layers
// nil-guard every counter pointer.
func TestUntracedRunRecordsNothing(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	a := nw.Attach(cluster.NewNode(env, 0, 2, 1<<20))
	b := nw.Attach(cluster.NewNode(env, 1, 2, 1<<20))
	addr := b.RegisterAtSetup(make([]byte, 64)).Addr()
	env.Go("client", func(p *sim.Proc) {
		if err := a.Write(p, addr, 0, make([]byte, 64)); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if trace.Of(env) != nil {
		t.Fatal("registry appeared out of nowhere")
	}
}

func TestSinkStreamsEvents(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	r := trace.Attach(env)
	var sink bytes.Buffer
	r.SetSink(&sink)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	a := nw.Attach(cluster.NewNode(env, 0, 2, 1<<20))
	b := nw.Attach(cluster.NewNode(env, 1, 2, 1<<20))
	addr := b.RegisterAtSetup(make([]byte, 64)).Addr()
	env.Go("client", func(p *sim.Proc) {
		if err := a.Write(p, addr, 0, make([]byte, 64)); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sink.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("sink saw no events")
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid event line %q: %v", line, err)
		}
		if m["layer"] != "verbs" || m["event"] != "write" {
			t.Fatalf("unexpected event: %q", line)
		}
	}
}
