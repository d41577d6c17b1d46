package dlm

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/faults"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// RecoveryResult reports one crash-recovery run of the canonical
// lease-recovery scenario (see MeasureRecovery).
type RecoveryResult struct {
	CrashAt    time.Duration // virtual instant the holder died
	RelockedAt time.Duration // instant the waiter held the lock again
	Latency    time.Duration // RelockedAt - CrashAt
	Recoveries int           // home-agent repairs performed (expect 1)
}

// MeasureRecovery runs the canonical N-CoSED lease-recovery scenario and
// reports how long the lock was unavailable: node 0 homes lock 0, node 1
// acquires it exclusively and crashes mid-critical-section, node 2 is
// queued behind it. The home agent detects the dead holder at the next
// lease expiry, repairs the lock word and re-grants the queue; the
// measured latency is the gap between the crash and the waiter holding
// the lock, which the lease interval bounds from above. The run is
// opened with o, whose Faults the scenario's own one-crash plan replaces.
func MeasureRecovery(ttl time.Duration, o runtime.ServiceOptions) (RecoveryResult, error) {
	const crashAt = 50 * time.Microsecond
	o.Faults = &faults.Plan{Events: []faults.Event{
		{At: crashAt, Kind: faults.Crash, Node: 1},
	}}
	env := o.NewEnv()
	// The parked holder and the lock daemons outlive Run.
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, o.Fabric())
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 1<<30)
	}
	m := New(nw, nodes, Options{Kind: NCoSED, NumLocks: 1, LeaseTTL: ttl})

	// The doomed holder: grabs the lock and sits in its critical section
	// until the injected crash takes the node down. A daemon, so the run
	// ends when the waiter is done.
	var opErr error
	env.GoDaemon("holder", func(p *sim.Proc) {
		if err := m.Client(1).Lock(p, 0, Exclusive); err != nil {
			opErr = err
			return
		}
		p.Park("critical-section")
	})
	var res RecoveryResult
	res.CrashAt = crashAt
	env.Go("waiter", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond) // queue up behind the holder pre-crash
		if err := m.Client(2).Lock(p, 0, Exclusive); err != nil {
			opErr = err
			return
		}
		res.RelockedAt = time.Duration(env.Now())
		if err := m.Client(2).Unlock(p, 0, Exclusive); err != nil {
			opErr = err
		}
	})
	err := env.Run()
	if opErr != nil {
		err = opErr
	}
	if err != nil {
		return res, err
	}
	res.Latency = res.RelockedAt - res.CrashAt
	res.Recoveries = m.LeaseRecoveries()
	if res.Recoveries == 0 {
		return res, fmt.Errorf("dlm: recovery scenario completed without a lease recovery")
	}
	return res, nil
}
