package ddss

import (
	"strings"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// TestModelsContract pins the documented contract of Models: exactly the
// Fig 3a sweep — every Coherence constant except Temporal, each once.
// If a model is ever added or the figure order changes, this forces the
// comment and the experiments that iterate Models to be revisited.
func TestModelsContract(t *testing.T) {
	all := []Coherence{Null, Write, Read, Strict, Version, Delta, Temporal}
	seen := map[Coherence]int{}
	for _, m := range Models {
		seen[m]++
	}
	for _, m := range all {
		want := 1
		if m == Temporal {
			want = 0 // not part of the figure's sweep, by contract
		}
		if seen[m] != want {
			t.Errorf("Models contains %v %d times, want %d", m, seen[m], want)
		}
	}
	if len(Models) != len(all)-1 {
		t.Errorf("Models has %d entries, want %d", len(Models), len(all)-1)
	}
	for _, m := range all {
		if strings.HasPrefix(m.String(), "Coherence(") {
			t.Errorf("constant %d has no String case", int(m))
		}
	}
}

func faultSubstrate(t *testing.T, n int, plan *faults.Plan) (*sim.Env, *Substrate) {
	t.Helper()
	env := sim.NewEnv(1)
	faults.Install(env, plan)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 64<<20)
	}
	return env, New(nw, nodes, Options{})
}

// TestHomeCrashPropagatesErrors checks that one-sided substrate ops
// against a crashed home node surface verbs errors instead of hanging,
// and that Rehome brings the segment back on a live node.
func TestHomeCrashPropagatesErrors(t *testing.T) {
	crashAt := 100 * time.Microsecond
	env, ss := faultSubstrate(t, 3, &faults.Plan{Events: []faults.Event{
		{At: crashAt, Kind: faults.Crash, Node: 0},
	}})
	defer env.Shutdown()
	env.Go("driver", func(p *sim.Proc) {
		c := ss.Client(1)
		h, err := c.Allocate(p, "seg", 1024, Version, 0)
		if err != nil {
			t.Error(err)
			return
		}
		data := []byte("payload")
		if _, err := h.Put(p, data); err != nil {
			t.Errorf("pre-crash put: %v", err)
		}
		p.SleepUntil(sim.Time(crashAt + 10*time.Microsecond))
		buf := make([]byte, len(data))
		if _, err := h.Get(p, buf); err == nil {
			t.Error("get against crashed home succeeded")
		}
		if _, err := h.Put(p, data); err == nil {
			t.Error("put against crashed home succeeded")
		}
		if _, err := h.WaitVersion(p, 99, time.Microsecond); err == nil {
			t.Error("waitversion against crashed home succeeded")
		}
		// Recovery: rebind the segment to a live node. Contents restart
		// cold, so the version is back to 0 and a fresh put works.
		newHome, err := ss.Rehome(p, "seg", NodeAuto)
		if err != nil {
			t.Errorf("rehome: %v", err)
			return
		}
		if newHome == 0 {
			t.Error("rehome picked the crashed node")
		}
		if h.HomeNode() != newHome {
			t.Errorf("handle sees home %d, want %d", h.HomeNode(), newHome)
		}
		if v, err := h.Put(p, data); err != nil || v != 1 {
			t.Errorf("post-rehome put: v=%d err=%v, want v=1", v, err)
		}
		if _, err := h.Get(p, buf); err != nil {
			t.Errorf("post-rehome get: %v", err)
		}
		if string(buf) != string(data) {
			t.Errorf("post-rehome read %q, want %q", buf, data)
		}
		// Rehoming a healthy segment is refused.
		if _, err := ss.Rehome(p, "seg", NodeAuto); err == nil {
			t.Error("rehome of a healthy segment succeeded")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
