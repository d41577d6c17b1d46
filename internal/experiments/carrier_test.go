package experiments

import (
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/coopcache"
	"ngdc/internal/ddss"
	"ngdc/internal/dlm"
	"ngdc/internal/dyncache"
	"ngdc/internal/faults"
	"ngdc/internal/integrated"
	"ngdc/internal/monitor"
	"ngdc/internal/multicast"
	"ngdc/internal/qos"
	"ngdc/internal/reconfig"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/sockets"
	"ngdc/internal/storm"
	"ngdc/internal/trace"
	"ngdc/internal/verbs"
)

// TestCarrierRegistryReachesEveryLayer runs every measurement helper and
// every run-level config once with a registry in the carrier and checks
// the snapshot saw the whole stack: devices and NICs (which cache their
// counter pointers when the network is built, so a registry attached
// after that — as the per-service Options used to do — records neither)
// and the op class or socket scheme the layer under test rides.
func TestCarrierRegistryReachesEveryLayer(t *testing.T) {
	const warmup, measure = 20 * time.Millisecond, 50 * time.Millisecond
	cases := []struct {
		name string
		run  func(o runtime.ServiceOptions) error
		// own names the layer's own counters: a fabric op class, or a
		// socket scheme when scheme is set.
		own    string
		scheme bool
	}{
		{"dlm.Cascade", func(o runtime.ServiceOptions) error {
			_, err := dlm.Cascade(dlm.NCoSED, dlm.Shared, 2, 1, o)
			return err
		}, "rdma-atomic", false},
		{"dlm.MeasureRecovery", func(o runtime.ServiceOptions) error {
			_, err := dlm.MeasureRecovery(100*time.Microsecond, 1, o)
			return err
		}, "rdma-atomic", false},
		{"ddss.MeasurePutLatency", func(o runtime.ServiceOptions) error {
			_, err := ddss.MeasurePutLatency(ddss.Version, 64, 1, o)
			return err
		}, "rdma-write", false},
		{"storm.Compare", func(o runtime.ServiceOptions) error {
			_, _, err := storm.Compare(1000, 4, storm.Selector{Modulo: 3}, 1, o)
			return err
		}, "rdma-write", false},
		{"multicast.MeasureLatency", func(o runtime.ServiceOptions) error {
			_, err := multicast.MeasureLatency(multicast.Binomial, 4, 4096, 1, o)
			return err
		}, "send", false},
		{"sockets.MeasureBandwidth", func(o runtime.ServiceOptions) error {
			_, err := sockets.MeasureBandwidth(sockets.BSDP, 64, 100, 1, o)
			return err
		}, "BSDP", true},
		{"monitor.Improvement", func(o runtime.ServiceOptions) error {
			_, _, err := monitor.Improvement(0.9, false, 1, o)
			return err
		}, "rdma-read", false},
		{"coopcache.Run", func(o runtime.ServiceOptions) error {
			cfg := coopcache.DefaultConfig(coopcache.CCWR, 2, 32<<10)
			cfg.Warmup, cfg.Measure = warmup, measure
			cfg.ServiceOptions = o
			_, err := coopcache.Run(cfg)
			return err
		}, "rdma-read", false},
		{"dyncache.Run", func(o runtime.ServiceOptions) error {
			cfg := dyncache.DefaultConfig(dyncache.RDMACheck)
			cfg.Measure = measure
			cfg.ServiceOptions = o
			_, err := dyncache.Run(cfg)
			return err
		}, "rdma-read", false},
		{"monitor.Accuracy", func(o runtime.ServiceOptions) error {
			cfg := monitor.DefaultAccuracyConfig(monitor.RDMASync)
			cfg.Duration = 50 * time.Millisecond
			cfg.ServiceOptions = o
			_, err := monitor.Accuracy(cfg)
			return err
		}, "rdma-read", false},
		{"monitor.RunLB", func(o runtime.ServiceOptions) error {
			cfg := monitor.DefaultLBConfig(monitor.RDMASync, 0.9)
			cfg.Measure = measure
			cfg.ServiceOptions = o
			_, err := monitor.RunLB(cfg)
			return err
		}, "rdma-read", false},
		{"qos.Run", func(o runtime.ServiceOptions) error {
			cfg := qos.DefaultConfig(qos.PriorityAdmission)
			cfg.Measure = measure
			cfg.ServiceOptions = o
			_, err := qos.Run(cfg)
			return err
		}, "rdma-read", false},
		{"integrated.Run", func(o runtime.ServiceOptions) error {
			cfg := integrated.DefaultConfig(integrated.RDMAStack)
			cfg.Measure = measure
			cfg.ServiceOptions = o
			_, err := integrated.Run(cfg)
			return err
		}, "rdma-read", false},
		{"reconfig.Run", func(o runtime.ServiceOptions) error {
			cfg := reconfig.DefaultConfig(reconfig.Naive)
			cfg.Measure = 300 * time.Millisecond // long enough for a node move
			cfg.ServiceOptions = o
			_, err := reconfig.Run(cfg)
			return err
		}, "rdma-atomic", false},
	}
	for _, c := range cases {
		reg := trace.NewRegistry()
		if err := c.run(runtime.ServiceOptions{Trace: reg}); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		ts := reg.Snapshot()
		if ts.Engine.Envs == 0 || len(ts.Devices) == 0 || len(ts.NICs) == 0 {
			t.Errorf("%s: registry saw %d environments, %d devices, %d NICs; want all non-zero",
				c.name, ts.Engine.Envs, len(ts.Devices), len(ts.NICs))
		}
		if c.scheme {
			if ts.Schemes[c.own].Msgs == 0 {
				t.Errorf("%s: no %s messages counted (schemes %v)", c.name, c.own, ts.Schemes)
			}
		} else if ts.Fabric[c.own].Ops == 0 {
			t.Errorf("%s: no %s ops counted (fabric %v)", c.name, c.own, ts.Fabric)
		}
	}
}

// TestCarrierPlanInstallsOneInjector opens a run with a plan in the
// carrier and builds two services over it — what used to bind the plan
// once per service, each bind scheduling every event again on an
// injector the fabric never saw. There must be one injector: the one the
// fabric and the network cached, firing each event once.
func TestCarrierPlanInstallsOneInjector(t *testing.T) {
	const crashAt, readAt, restartAt = 10 * time.Microsecond, 20 * time.Microsecond, 30 * time.Microsecond
	o := runtime.ServiceOptions{Faults: &faults.Plan{Events: []faults.Event{
		{At: crashAt, Kind: faults.Crash, Node: 1},
		{At: restartAt, Kind: faults.Restart, Node: 1},
	}}}
	env := o.NewEnv(1)
	defer env.Shutdown()
	inj := faults.Of(env)
	if inj == nil {
		t.Fatal("the carrier's plan was not installed")
	}
	var crashes int
	inj.OnCrash(func(int) { crashes++ })

	nw := verbs.NewNetwork(env, o.Fabric())
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 1<<20)
	}
	ddss.New(nw, nodes, ddss.Options{})
	dlm.New(nw, nodes, dlm.Options{Kind: dlm.NCoSED, NumLocks: 1})
	if got := faults.Of(env); got != inj {
		t.Fatalf("building services replaced the injector: %p, was %p", got, inj)
	}
	if got := nw.Fab.Faults(); got != inj {
		t.Fatalf("the fabric cached injector %p, the environment holds %p", got, inj)
	}

	// The network's crash handler zeroes the dead node's registered
	// memory, and a read of it while it is down is refused — both on
	// the injector the network cached.
	mr := nw.Device(1).RegisterAtSetup([]byte{0xff})
	var readErr error
	env.Go("reader", func(p *sim.Proc) {
		p.SleepUntil(sim.Time(readAt))
		readErr = nw.Device(0).Read(p, make([]byte, 1), mr.Addr(), 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if crashes != 1 {
		t.Errorf("subscribers saw %d crashes, want 1", crashes)
	}
	if st := inj.Stats(); st.Crashes != 1 || st.Restarts != 1 {
		t.Errorf("injector stats %+v, want 1 crash and 1 restart", st)
	}
	if readErr == nil {
		t.Error("a read of the crashed node succeeded: the network consults another injector")
	}
	if mr.Bytes()[0] != 0 {
		t.Error("the crashed node's memory was not zeroed: the network subscribed to another injector")
	}
}
