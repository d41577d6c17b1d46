package sockets

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// MeasureBandwidth measures one-way streaming throughput in bytes per
// second of virtual time: a sender streams msgs messages of msgSize to a
// tight receiver over a fresh two-node network. The run is opened with o.
func MeasureBandwidth(scheme Scheme, msgSize, msgs int, o runtime.ServiceOptions) (float64, error) {
	env := o.NewEnv()
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, o.Fabric())
	a := nw.Attach(cluster.NewNode(env, 0, 4, 1<<30))
	b := nw.Attach(cluster.NewNode(env, 1, 4, 1<<30))
	ca, cb := Dial(scheme, a, b)
	payload := make([]byte, msgSize)
	var done sim.Time
	env.Go("rx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			m, err := cb.RecvMsg(p)
			if err != nil {
				return
			}
			m.Release()
		}
		done = p.Now()
	})
	env.Go("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if err := ca.Send(p, payload); err != nil {
				return
			}
		}
	})
	if err := env.Run(); err != nil {
		return 0, err
	}
	if done == 0 {
		return 0, fmt.Errorf("sockets: bandwidth run did not complete")
	}
	return float64(msgSize*msgs) / (float64(done) / float64(time.Second)), nil
}

// Bandwidth is MeasureBandwidth on an untraced, fault-free run at the
// default calibration. Its last two parameters are unread. It is the one
// zero-carrier wrapper kept: the repository benchmark
// (benchmark/drives.go) compiles against this signature.
func Bandwidth(scheme Scheme, msgSize, msgs int, _ Options, seed int64) (float64, error) {
	return MeasureBandwidth(scheme, msgSize, msgs, runtime.ServiceOptions{})
}
