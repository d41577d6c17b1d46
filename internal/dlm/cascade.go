package dlm

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// CascadeResult is the outcome of one lock-cascading experiment (Fig 5):
// nWaiters processes queue up behind an exclusive holder; when the holder
// releases, the cascade of grants is timed.
type CascadeResult struct {
	Kind     Kind
	Mode     Mode
	NWaiters int
	// ReleaseAt is the virtual time the holder released the lock.
	ReleaseAt sim.Time
	// GrantLat[i] is the latency from release to waiter i's grant.
	GrantLat []time.Duration
	// Last is the latency from release until the final waiter was granted
	// (the full cascade).
	Last time.Duration
}

// Cascade runs the Fig 5 experiment for one scheme: an exclusive holder on
// its own node, nWaiters waiting requests of the given mode on distinct
// nodes, all against a lock homed on yet another node. It returns the
// grant-latency profile observed after the holder's release. The run is
// opened with o; a lock operation that fails under o.Faults ends its
// process, and Cascade returns the first such error.
func Cascade(kind Kind, mode Mode, nWaiters int, o runtime.ServiceOptions) (CascadeResult, error) {
	env := o.NewEnv()
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, o.Fabric())
	// Node 0 homes the lock; node 1 holds it; nodes 2.. are waiters.
	nodes := make([]*cluster.Node, nWaiters+2)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 1<<30)
	}
	m := New(nw, nodes, Options{Kind: kind, NumLocks: 1})
	const lock = 0

	res := CascadeResult{Kind: kind, Mode: mode, NWaiters: nWaiters, GrantLat: make([]time.Duration, nWaiters)}
	holdUntil := 10 * time.Millisecond
	// A shared cohort unlocks together: each grantee but the last parks
	// until the last one is granted, which wakes the others in the
	// order they parked.
	ungranted := nWaiters
	var cohort []*sim.Proc
	var opErr error
	failed := func(err error) bool {
		if err != nil && opErr == nil {
			opErr = err
		}
		return err != nil
	}

	env.Go("holder", func(p *sim.Proc) {
		c := m.Client(nodes[1].ID)
		if failed(c.Lock(p, lock, Exclusive)) {
			return
		}
		p.SleepUntil(sim.Time(holdUntil))
		res.ReleaseAt = p.Now()
		failed(c.Unlock(p, lock, Exclusive))
	})
	for i := 0; i < nWaiters; i++ {
		i := i
		node := nodes[i+2]
		env.Go(fmt.Sprintf("waiter%d", i), func(p *sim.Proc) {
			// Stagger arrivals so the queue forms deterministically, long
			// before the holder releases.
			p.SleepUntil(sim.Time(time.Millisecond + time.Duration(i)*20*time.Microsecond))
			c := m.Client(node.ID)
			if failed(c.Lock(p, lock, mode)) {
				return
			}
			res.GrantLat[i] = time.Duration(p.Now() - res.ReleaseAt)
			if mode == Exclusive || kind == DQNL {
				// Advance the chain immediately, as in the paper's
				// cascading-unlock measurement. DQNL has no shared mode,
				// so its "shared" holders cannot coexist: each must
				// release before the next waiter's grant — exactly the
				// serialization Fig 5a penalizes.
				failed(c.Unlock(p, lock, mode))
			} else {
				ungranted--
				if ungranted > 0 {
					cohort = append(cohort, p)
					p.Park("cascade: shared cohort")
				} else {
					for _, q := range cohort {
						env.WakeAfter(q, 0)
					}
				}
				failed(c.Unlock(p, lock, Shared))
			}
		})
	}
	err := env.Run()
	if opErr != nil {
		err = opErr
	}
	if err != nil {
		return res, err
	}
	for _, d := range res.GrantLat {
		if d > res.Last {
			res.Last = d
		}
	}
	return res, nil
}
