package filecache

import (
	"fmt"

	"ngdc/internal/cluster"
	"ngdc/internal/gma"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// MeasureRestart runs the §6 experiment for one mode — one E15 row. A
// cache on node 0 of a 3-node pool reads a working set of twice its local
// capacity five times over; then a FlushLocal wipes the local cache, as a
// restart or a reconfiguration move would, and the working set is read
// once more. It returns the mean read latency (µs) of the five passes and
// how many pages of the last pass came back from remote memory. The run
// is opened with o.
func MeasureRestart(mode Mode, o runtime.ServiceOptions) (meanUs float64, warm int, err error) {
	env := o.NewEnv()
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, o.Fabric())
	var nodes []*cluster.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cluster.NewNode(env, i, 2, 64<<20))
	}
	var agg *gma.Aggregator
	if mode == RemoteMemory {
		if agg, err = gma.New(nw, nodes, gma.Options{ArenaPerNode: 16 << 20}); err != nil {
			return 0, 0, err
		}
	}
	c := New(DefaultConfig(mode), nw, nodes[0], agg)
	const workingSet, passes = 2 * localPages, 5
	var opErr error
	env.Go("reader", func(p *sim.Proc) {
		for pass := 0; pass <= passes; pass++ {
			if pass == passes {
				meanUs = c.Stats.MeanLatencyUs()
				c.FlushLocal()
			}
			for pg := 0; pg < workingSet; pg++ {
				src, err := c.Read(p, 0, pg)
				if err != nil {
					opErr = err
					return
				}
				if pass == passes && src == FromRemote {
					warm++
				}
			}
		}
	})
	if err := env.Run(); err != nil {
		return 0, 0, err
	}
	if opErr != nil {
		return 0, 0, fmt.Errorf("filecache: measure: %w", opErr)
	}
	return meanUs, warm, nil
}
