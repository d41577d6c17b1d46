package dlm

import (
	"fmt"
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
	if err := auditIdle(m); err != nil {
		t.Error(err)
	}
	if got := m.LeaseRecoveries(); got != 0 {
		t.Errorf("%d recoveries on a healthy run, want 0", got)
	}
}

// TestHomeCrashIsAnError: a fault plan crashes a lock's home node while a
// one-sided design's first atomic to it is in flight. Lock returns the
// atomic's error at the instant a healthy Lock returns, a later Unlock and
// Lock fail at once, and the run completes without a panic. SRSL's
// request is a datagram, and one sent to a dead home is dropped without
// an error; its send fails only from a dead client, at once, and leaves
// no grant armed, so the next Lock fails the same way instead of
// panicking on a double outstanding request.
func TestHomeCrashIsAnError(t *testing.T) {
	const start = 10 * time.Microsecond
	for _, tc := range []struct {
		kind  Kind
		mode  Mode
		crash int           // 0 homes the lock, 1 is the client
		at    time.Duration // crash instant relative to the first Lock
		want  string
	}{
		{NCoSED, Exclusive, 0, 100 * time.Nanosecond, "peer unreachable"},
		{NCoSED, Shared, 0, 100 * time.Nanosecond, "peer unreachable"},
		{DQNL, Exclusive, 0, 100 * time.Nanosecond, "peer unreachable"},
		{SRSL, Exclusive, 1, -time.Microsecond, "local device down"},
	} {
		t.Run(fmt.Sprintf("%v/%v", tc.kind, tc.mode), func(t *testing.T) {
			lockAt := func(plan *faults.Plan) (took time.Duration, errs [3]error) {
				env := sim.NewEnv(1)
				defer env.Shutdown()
				faults.Install(env, plan)
				nw := verbs.NewNetwork(env, fabric.DefaultParams())
				nodes := make([]*cluster.Node, 2)
				for i := range nodes {
					nodes[i] = cluster.NewNode(env, i, 2, 1<<30)
				}
				m := New(nw, nodes, Options{Kind: tc.kind, NumLocks: 1}) // lock 0 lives on node 0
				env.Go("client", func(p *sim.Proc) {
					c := m.Client(1)
					p.SleepUntil(sim.Time(start))
					errs[0] = c.Lock(p, 0, tc.mode)
					took = time.Duration(p.Now()) - start
					errs[1] = c.Unlock(p, 0, tc.mode)
					errs[2] = c.Lock(p, 0, tc.mode)
				})
				if err := env.Run(); err != nil {
					t.Fatal(err)
				}
				return took, errs
			}
			nominal, errs := lockAt(nil)
			if errs != [3]error{} || nominal == 0 {
				t.Fatalf("healthy run: %v after %v", errs, nominal)
			}
			took, errs := lockAt(&faults.Plan{Events: []faults.Event{{At: start + tc.at, Kind: faults.Crash, Node: tc.crash}}})
			if tc.at < 0 {
				nominal = 0 // the client was already down: nothing left
			}
			if took != nominal {
				t.Errorf("Lock failed after %v, want %v", took, nominal)
			}
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("call %d: err = %v, want %s", i, err, tc.want)
				}
			}
		})
	}
}
