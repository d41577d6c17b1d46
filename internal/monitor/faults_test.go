package monitor

import (
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// TestRDMAFailureDetection drives a crash/restart through both RDMA
// schemes: the station must suspect the dead target within one polling
// interval (async) or at the next on-demand sample (sync), and clear the
// suspicion once the node restarts.
func TestRDMAFailureDetection(t *testing.T) {
	const (
		crashAt   = 5 * time.Millisecond
		restartAt = 15 * time.Millisecond
	)
	for _, scheme := range []Scheme{RDMASync, RDMAAsync} {
		t.Run(scheme.String(), func(t *testing.T) {
			env := sim.NewEnv(1)
			faults.Install(env, &faults.Plan{Events: []faults.Event{
				{At: crashAt, Kind: faults.Crash, Node: 1},
				{At: restartAt, Kind: faults.Restart, Node: 1},
			}})
			defer env.Shutdown()
			nw := verbs.NewNetwork(env, fabric.DefaultParams())
			front := cluster.NewNode(env, 0, 2, 1<<20)
			back := cluster.NewNode(env, 1, 2, 1<<20)
			st := NewStation(scheme, nw, front, []*cluster.Node{back}, FineInterval)
			st.Start()
			env.Go("probe", func(p *sim.Proc) {
				st.Sample(p, 0)
				if st.Down(0) {
					t.Error("healthy target suspected down")
				}
				// One interval after the crash the suspicion must be up.
				p.SleepUntil(sim.Time(crashAt + FineInterval + time.Millisecond))
				st.Sample(p, 0)
				if !st.Down(0) {
					t.Error("crashed target not suspected down")
				}
				// And cleared again one interval after the restart.
				p.SleepUntil(sim.Time(restartAt + FineInterval + time.Millisecond))
				st.Sample(p, 0)
				if st.Down(0) {
					t.Error("restarted target still suspected down")
				}
			})
			// RunUntil: the async poller daemon keeps the event heap
			// populated forever, so an open-ended Run would never return.
			if err := env.RunUntil(sim.Time(30 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
