package monitor

import (
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

func TestSchemeString(t *testing.T) {
	want := map[Scheme]string{
		SocketSync:  "Socket-Sync",
		SocketAsync: "Socket-Async",
		RDMASync:    "RDMA-Sync",
		RDMAAsync:   "RDMA-Async",
		ERDMASync:   "e-RDMA-Sync",
	}
	for sc, name := range want {
		if sc.String() != name {
			t.Fatalf("%d.String() = %q", sc, sc.String())
		}
	}
	if Scheme(42).String() != "Scheme(42)" {
		t.Fatal("unknown scheme name")
	}
	if SocketSync.UsesRDMA() || !ERDMASync.UsesRDMA() {
		t.Fatal("UsesRDMA wrong")
	}
}

func TestRDMASyncSamplesAreCurrent(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	front := cluster.NewNode(env, 0, 2, 1<<20)
	back := cluster.NewNode(env, 1, 2, 1<<20)
	st := NewStation(RDMASync, nw, front, []*cluster.Node{back}, time.Second)
	st.Start()
	env.Go("probe", func(p *sim.Proc) {
		back.SetThreads(17)
		snap := st.Sample(p, 0)
		if snap.Threads != 17 {
			t.Errorf("sample = %d, want 17", snap.Threads)
		}
		back.SetThreads(3)
		if st.Sample(p, 0).Threads != 3 {
			t.Error("second sample stale")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(st.tgts) != 1 {
		t.Fatal("targets wrong")
	}
}

func TestRDMAAsyncBoundedStaleness(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	front := cluster.NewNode(env, 0, 2, 1<<20)
	back := cluster.NewNode(env, 1, 2, 1<<20)
	interval := 10 * time.Millisecond
	st := NewStation(RDMAAsync, nw, front, []*cluster.Node{back}, interval)
	st.Start()
	var staleness time.Duration
	env.Go("probe", func(p *sim.Proc) {
		back.SetThreads(9)
		p.Sleep(25 * time.Millisecond)
		snap := st.Sample(p, 0)
		if snap.Threads != 9 {
			t.Errorf("async sample = %d, want 9", snap.Threads)
		}
		staleness = st.Staleness(0)
	})
	if err := env.RunUntil(sim.Time(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if staleness > interval {
		t.Fatalf("staleness %v exceeds interval %v", staleness, interval)
	}
}

func TestAccuracyRDMABeatsSockets(t *testing.T) {
	// Fig 8a: under back-end load, RDMA-based readings track the true
	// thread count; socket-based readings deviate badly — on the default
	// InfiniBand calibration and on iWARP alike.
	for _, cal := range []struct {
		name   string
		params fabric.Params
	}{{"InfiniBand", fabric.Params{}}, {"iWARP", fabric.IWARPParams()}} {
		dev := map[Scheme]float64{}
		for _, sc := range Schemes {
			cfg := DefaultAccuracyConfig(sc)
			cfg.Duration = 1500 * time.Millisecond
			cfg.Params = cal.params
			res, err := Accuracy(cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", cal.name, sc, err)
			}
			if len(res.Samples) < 10 {
				t.Fatalf("%s %v: only %d samples", cal.name, sc, len(res.Samples))
			}
			dev[sc] = res.MeanAbsDeviation()
		}
		for _, rdma := range []Scheme{RDMASync, ERDMASync} {
			for _, sock := range []Scheme{SocketSync, SocketAsync} {
				if dev[rdma] >= dev[sock] {
					t.Fatalf("%s: %v deviation %.1f not below %v %.1f", cal.name, rdma, dev[rdma], sock, dev[sock])
				}
			}
		}
		if dev[RDMASync] > 1.0 {
			t.Fatalf("%s: RDMA-Sync deviation %.2f; expected near zero", cal.name, dev[RDMASync])
		}
		if dev[SocketAsync] < 3.0 {
			t.Fatalf("%s: Socket-Async deviation %.2f; load sensitivity missing", cal.name, dev[SocketAsync])
		}
	}
}

func TestAccuracyMaxDeviation(t *testing.T) {
	cfg := DefaultAccuracyConfig(SocketAsync)
	cfg.Duration = time.Second
	res, err := Accuracy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbsDeviation() < int(res.MeanAbsDeviation()) {
		t.Fatal("max deviation below mean")
	}
}

func TestLBRDMAImprovesThroughput(t *testing.T) {
	run := func(sc Scheme) LBStats {
		cfg := DefaultLBConfig(sc, 0.9)
		cfg.Measure = time.Second
		st, err := RunLB(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests == 0 {
			t.Fatalf("%v: no requests completed", sc)
		}
		return st
	}
	base := run(SocketAsync)
	erdma := run(ERDMASync)
	rdma := run(RDMASync)
	if erdma.TPS <= base.TPS {
		t.Fatalf("e-RDMA-Sync TPS %.0f not above Socket-Async %.0f", erdma.TPS, base.TPS)
	}
	if rdma.TPS <= base.TPS {
		t.Fatalf("RDMA-Sync TPS %.0f not above Socket-Async %.0f", rdma.TPS, base.TPS)
	}
	if erdma.MeanLatencyMs >= base.MeanLatencyMs {
		t.Fatalf("e-RDMA-Sync latency %.1fms not below baseline %.1fms", erdma.MeanLatencyMs, base.MeanLatencyMs)
	}
}

func TestLBRUBiSMix(t *testing.T) {
	cfg := DefaultLBConfig(ERDMASync, 0)
	cfg.RUBiS = true
	cfg.Measure = time.Second
	st, err := RunLB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 {
		t.Fatal("RUBiS run produced no requests")
	}
}

func TestImprovementSweep(t *testing.T) {
	imp, stats, err := Improvement(0.75, false, 1, runtime.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if imp[SocketAsync] != 0 {
		t.Fatalf("baseline improvement %.1f != 0", imp[SocketAsync])
	}
	if imp[ERDMASync] <= 0 {
		t.Fatalf("e-RDMA-Sync improvement %.1f%% not positive", imp[ERDMASync])
	}
	if len(stats) != len(Schemes) {
		t.Fatal("missing schemes in sweep")
	}
}

func TestDocCostDeterministicAndDivergent(t *testing.T) {
	if docCost(5) != docCost(5) {
		t.Fatal("docCost not deterministic")
	}
	seen := map[time.Duration]bool{}
	for d := 0; d < 100; d++ {
		seen[docCost(d)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("docCost only produced %d distinct costs", len(seen))
	}
}
