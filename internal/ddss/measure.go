package ddss

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// MeasurePutLatency measures the uncontended put() latency of one
// coherence model for a given message size — one Fig 3a data point. The
// segment lives on a remote home node, as in the paper's measurement.
// The run is opened with o.
func MeasurePutLatency(coh Coherence, msgSize int, seed int64, o runtime.ServiceOptions) (time.Duration, error) {
	env := o.NewEnv(seed)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, o.Fabric())
	home := cluster.NewNode(env, 0, 2, 1<<30)
	client := cluster.NewNode(env, 1, 2, 1<<30)
	ss := New(nw, []*cluster.Node{home, client}, Options{})
	var lat time.Duration
	var opErr error
	env.Go("probe", func(p *sim.Proc) {
		c := ss.Client(client.ID)
		h, err := c.Allocate(p, "probe", msgSize, coh, home.ID)
		if err != nil {
			opErr = err
			return
		}
		buf := make([]byte, msgSize)
		// The first put seeds the segment; the second is measured.
		if _, err := h.Put(p, buf); err != nil {
			opErr = err
			return
		}
		start := p.Now()
		_, opErr = h.Put(p, buf)
		lat = time.Duration(p.Now() - start)
	})
	if err := env.Run(); err != nil {
		return 0, err
	}
	if opErr != nil {
		return 0, fmt.Errorf("ddss: measure: %w", opErr)
	}
	return lat, nil
}
