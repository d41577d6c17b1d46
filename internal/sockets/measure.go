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
func MeasureBandwidth(scheme Scheme, msgSize, msgs int, opt Options, seed int64, o runtime.ServiceOptions) (float64, error) {
	env := o.NewEnv(seed)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, o.Fabric())
	a := nw.Attach(cluster.NewNode(env, 0, 4, 1<<30))
	b := nw.Attach(cluster.NewNode(env, 1, 4, 1<<30))
	ca, cb := Dial(scheme, a, b, opt)
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
// default calibration. It is the one zero-carrier wrapper kept: the
// repository benchmark (benchmark/drives.go), which a PR may not edit,
// compiles against this signature.
func Bandwidth(scheme Scheme, msgSize, msgs int, opt Options, seed int64) (float64, error) {
	return MeasureBandwidth(scheme, msgSize, msgs, opt, seed, runtime.ServiceOptions{})
}

// MessageRate measures small-message throughput in messages per second.
func MessageRate(scheme Scheme, msgSize, msgs int, opt Options, seed int64) (float64, error) {
	bw, err := Bandwidth(scheme, msgSize, msgs, opt, seed)
	if err != nil {
		return 0, err
	}
	if msgSize == 0 {
		return 0, nil
	}
	return bw / float64(msgSize), nil
}

// OneWayLatency measures the one-way latency of a single message on a
// run opened with o.
func OneWayLatency(scheme Scheme, msgSize int, opt Options, seed int64, o runtime.ServiceOptions) (time.Duration, error) {
	env := o.NewEnv(seed)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, o.Fabric())
	a := nw.Attach(cluster.NewNode(env, 0, 4, 1<<30))
	b := nw.Attach(cluster.NewNode(env, 1, 4, 1<<30))
	ca, cb := Dial(scheme, a, b, opt)
	var lat time.Duration
	env.Go("rx", func(p *sim.Proc) {
		if _, err := cb.Recv(p); err == nil {
			lat = time.Duration(p.Now())
		}
	})
	env.Go("tx", func(p *sim.Proc) {
		if err := ca.Send(p, make([]byte, msgSize)); err != nil {
			return
		}
	})
	if err := env.Run(); err != nil {
		return 0, err
	}
	return lat, nil
}
