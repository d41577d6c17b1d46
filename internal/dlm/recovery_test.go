package dlm

import (
	"strings"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// TestCrashRecoveryWithinLease is the end-to-end recovery scenario: the
// exclusive N-CoSED holder is killed mid-critical-section and the queued
// waiter must be re-granted the lock within one lease interval.
func TestCrashRecoveryWithinLease(t *testing.T) {
	for _, ttl := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond} {
		res, err := MeasureRecovery(ttl, 1, runtime.ServiceOptions{})
		if err != nil {
			t.Fatalf("ttl %v: %v", ttl, err)
		}
		if res.Recoveries != 1 {
			t.Errorf("ttl %v: %d recoveries, want 1", ttl, res.Recoveries)
		}
		if res.Latency <= 0 {
			t.Errorf("ttl %v: non-positive recovery latency %v", ttl, res.Latency)
		}
		// The home agent checks the holder at lease expiries, so the lock
		// must change hands within one lease interval of the crash (plus a
		// little grant-propagation slack).
		if slack := 20 * time.Microsecond; res.Latency > ttl+slack {
			t.Errorf("ttl %v: recovery latency %v exceeds one lease interval", ttl, res.Latency)
		}
	}
}

// TestCrashRecoveryFreesTailHolder covers the other repair branch: the
// dead holder had no queued successor, so the home agent resets the lock
// word and a later requester acquires with a plain CAS.
func TestCrashRecoveryFreesTailHolder(t *testing.T) {
	const (
		ttl     = 100 * time.Microsecond
		crashAt = 50 * time.Microsecond
	)
	env := sim.NewEnv(1)
	faults.Install(env, &faults.Plan{Events: []faults.Event{
		{At: crashAt, Kind: faults.Crash, Node: 1},
	}})
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 1<<30)
	}
	m := New(nw, nodes, Options{Kind: NCoSED, NumLocks: 1, LeaseTTL: ttl})
	env.GoDaemon("holder", func(p *sim.Proc) {
		m.Client(1).Lock(p, 0, Exclusive)
		p.Park("critical-section")
	})
	var waited time.Duration
	env.Go("late-requester", func(p *sim.Proc) {
		p.SleepUntil(sim.Time(crashAt + 2*ttl)) // well past the recovery
		start := env.Now()
		m.Client(2).Lock(p, 0, Exclusive)
		waited = time.Duration(env.Now() - start)
		m.Client(2).Unlock(p, 0, Exclusive)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.LeaseRecoveries(); got != 1 {
		t.Errorf("%d recoveries, want 1", got)
	}
	if waited > 20*time.Microsecond {
		t.Errorf("post-recovery acquire took %v, want a fast-path CAS", waited)
	}
}

// TestSharedUnderflowGuard is the regression test for the lock-word
// underflow hazard: a shared decrement while the count half is zero used
// to borrow into the exclusive-tail half and silently corrupt the queue.
// The guard must catch the unbalanced unlock loudly instead.
func TestSharedUnderflowGuard(t *testing.T) {
	env, m, _ := testManager(1, NCoSED, 3, 1)
	env.Go("driver", func(p *sim.Proc) {
		// An exclusive holder installs a non-zero tail half, the exact
		// state the borrow used to corrupt...
		m.Client(1).Lock(p, 0, Exclusive)
		// ...and an unmatched shared unlock races against it.
		m.Client(2).Unlock(p, 0, Shared)
	})
	err := env.Run()
	if err == nil {
		t.Fatal("unbalanced shared unlock went undetected")
	}
	if !strings.Contains(err.Error(), "underflow") {
		t.Fatalf("got %v, want a shared-count underflow report", err)
	}
}

// TestLeasesPreserveContendedHandoff checks that enabling leases does not
// change protocol outcomes: a three-node exclusive chain still hands the
// lock over in queue order.
func TestLeasesPreserveContendedHandoff(t *testing.T) {
	env := sim.NewEnv(1)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 1<<30)
	}
	m := New(nw, nodes, Options{Kind: NCoSED, NumLocks: 1, LeaseTTL: 200 * time.Microsecond})
	var order []int
	for i := 0; i < 3; i++ {
		id := i
		env.Go("locker", func(p *sim.Proc) {
			p.Sleep(time.Duration(id) * 5 * time.Microsecond)
			m.Client(id).Lock(p, 0, Exclusive)
			order = append(order, id)
			p.Sleep(20 * time.Microsecond)
			m.Client(id).Unlock(p, 0, Exclusive)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order %v, want [0 1 2]", order)
	}
	if got := m.LeaseRecoveries(); got != 0 {
		t.Errorf("%d recoveries on a healthy run, want 0", got)
	}
}
