package verbs

import (
	"errors"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
	"ngdc/internal/sim"
)

// faultNet is testNet with a fault plan installed before the network is
// built, the order the production constructors expect.
func faultNet(t testing.TB, n int, plan *faults.Plan) (*sim.Env, *Network, []*Device, *faults.Injector) {
	t.Helper()
	env := sim.NewEnv(1)
	inj := faults.Install(env, plan)
	nw := NewNetwork(env, fabric.DefaultParams())
	devs := make([]*Device, n)
	for i := 0; i < n; i++ {
		devs[i] = nw.Attach(cluster.NewNode(env, i, 4, 1<<30))
	}
	return env, nw, devs, inj
}

func opReason(t *testing.T, err error) string {
	t.Helper()
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v is not an *OpError", err)
	}
	return oe.Reason
}

// TestOneSidedOpsFailOnCrashedPeer pins the entry-check semantics: every
// one-sided op against a crashed node fails with "peer unreachable"
// instead of hanging, and succeeds again after the node restarts (with
// cold, zeroed memory).
func TestOneSidedOpsFailOnCrashedPeer(t *testing.T) {
	env, _, devs, _ := faultNet(t, 2, &faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 100 * time.Microsecond, Kind: faults.Crash, Node: 1},
		{At: 300 * time.Microsecond, Kind: faults.Restart, Node: 1},
	}})
	buf := make([]byte, 64)
	buf[0] = 0xAA
	mr := devs[1].RegisterAtSetup(buf)
	env.Go("driver", func(p *sim.Proc) {
		// Healthy before the crash.
		if err := devs[0].Write(p, mr.Addr(), 0, []byte{0xBB}); err != nil {
			t.Errorf("pre-crash write: %v", err)
		}
		p.SleepUntil(sim.Time(150 * time.Microsecond)) // node 1 is down
		dst := make([]byte, 8)
		if err := devs[0].Read(p, dst, mr.Addr(), 0); err == nil {
			t.Error("read on crashed peer succeeded")
		} else if r := opReason(t, err); r != "peer unreachable" {
			t.Errorf("read reason = %q", r)
		}
		if err := devs[0].Write(p, mr.Addr(), 0, []byte{1}); err == nil {
			t.Error("write on crashed peer succeeded")
		}
		if _, err := devs[0].CompareSwap(p, mr.Addr(), 0, 0, 1); err == nil {
			t.Error("cas on crashed peer succeeded")
		}
		if _, err := devs[0].FetchAdd(p, mr.Addr(), 0, 1); err == nil {
			t.Error("faa on crashed peer succeeded")
		}
		p.SleepUntil(sim.Time(350 * time.Microsecond)) // node 1 restarted
		if err := devs[0].Read(p, dst, mr.Addr(), 0); err != nil {
			t.Errorf("post-restart read: %v", err)
		}
		if dst[0] != 0 {
			t.Errorf("post-restart memory = %#x, want zeroed (cold restart)", dst[0])
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMidFlightCrashCompletesWithError drives the in-flight case the
// tentpole calls out: an op already on the wire when the target dies
// completes with an error at its nominal completion instant — it never
// hangs and never touches dead memory.
func TestMidFlightCrashCompletesWithError(t *testing.T) {
	pp := fabric.DefaultParams()
	// Crash the target after the read request is issued but before the
	// mid-chain (target-side) instant at IBReadLatency/2 = 3µs.
	env, _, devs, _ := faultNet(t, 2, &faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 1 * time.Microsecond, Kind: faults.Crash, Node: 1},
	}})
	mr := devs[1].RegisterAtSetup(make([]byte, 64))
	env.Go("reader", func(p *sim.Proc) {
		start := env.Now()
		err := devs[0].Read(p, make([]byte, 8), mr.Addr(), 0)
		if err == nil {
			t.Error("mid-flight-crashed read succeeded")
		}
		if got, want := time.Duration(env.Now()-start), pp.IBReadLatency; got != want {
			t.Errorf("errored read took %v, want the nominal %v", got, want)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPostedWRsFlushOnCrash checks the CQ path: posted work requests
// against a dead node complete in posting order with error status.
func TestPostedWRsFlushOnCrash(t *testing.T) {
	env, _, devs, _ := faultNet(t, 2, &faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 10 * time.Microsecond, Kind: faults.Crash, Node: 1},
	}})
	mr := devs[1].RegisterAtSetup(make([]byte, 1024))
	cq := devs[0].CreateCQ("cq", 16)
	env.Go("poster", func(p *sim.Proc) {
		p.SleepUntil(sim.Time(20 * time.Microsecond))
		src := []byte{1, 2, 3, 4}
		wrs := []WR{
			{ID: 1, Op: OpWrite, Target: mr.Addr(), Off: 0, Src: src},
			{ID: 2, Op: OpRead, Target: mr.Addr(), Off: 0, Dst: make([]byte, 4)},
			{ID: 3, Op: OpFAA, Target: mr.Addr(), Off: 8, Delta: 1},
		}
		devs[0].PostList(cq, wrs)
		for want := uint64(1); want <= 3; want++ {
			c := cq.Poll(p)
			if c.ID != want {
				t.Errorf("completion order: got ID %d, want %d", c.ID, want)
			}
			if c.Err == nil {
				t.Errorf("WR %d completed OK against a crashed node", c.ID)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionDropsMessagesUntilHealed sends over a service queue
// across a partition window: messages in the window vanish (fire and
// forget), messages after the heal arrive.
func TestPartitionDropsMessagesUntilHealed(t *testing.T) {
	env, _, devs, inj := faultNet(t, 2, &faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 10 * time.Microsecond, Kind: faults.Partition, A: 0, B: 1},
		{At: 200 * time.Microsecond, Kind: faults.Heal, A: 0, B: 1},
	}})
	q := devs[1].Bind("svc")
	var got []byte
	env.GoDaemon("rx", func(p *sim.Proc) {
		for {
			msg := q.Recv(p)
			got = append(got, msg.Data[0])
			msg.Release()
		}
	})
	env.Go("tx", func(p *sim.Proc) {
		p.SleepUntil(sim.Time(50 * time.Microsecond))
		if err := devs[0].Send(p, q, []byte{1}); err != nil {
			t.Errorf("partitioned send errored: %v", err) // fire-and-forget: drop, not error
		}
		p.SleepUntil(sim.Time(250 * time.Microsecond))
		if err := devs[0].Send(p, q, []byte{2}); err != nil {
			t.Errorf("healed send errored: %v", err)
		}
		p.Sleep(50 * time.Microsecond)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("received %v, want only the post-heal message [2]", got)
	}
	if inj.Stats().Drops != 1 {
		t.Fatalf("drops = %d, want 1", inj.Stats().Drops)
	}
}

// TestCrashMidFlightDropsDelivery covers the delivery-time check: a
// message already on the wire when the receiver dies is dropped at the
// delivery instant instead of landing in a dead node's queue, or
// reaching a handler queue's function. Both delivery paths are covered:
// the constant-latency FIFO of a healthy link, and the captured closure
// of a link with an injected delay.
func TestCrashMidFlightDropsDelivery(t *testing.T) {
	pp := fabric.DefaultParams()
	if pp.IBSendLatency <= 2*time.Microsecond {
		t.Skip("send latency too short to crash mid-flight")
	}
	for _, delayed := range []bool{false, true} {
		for _, handler := range []bool{false, true} {
			plan := &faults.Plan{Seed: 1, Events: []faults.Event{{At: 12 * time.Microsecond, Kind: faults.Crash, Node: 1}}}
			if delayed {
				plan.Events = append(plan.Events, faults.Event{At: 0, Kind: faults.Delay, A: 0, B: 1, Extra: time.Microsecond})
			}
			env, _, devs, inj := faultNet(t, 2, plan)
			handled := 0
			var q *RecvQueue
			if handler {
				q = devs[1].BindHandler(func(m Message) {
					handled++
					m.Release()
				})
			} else {
				q = devs[1].Bind("svc")
			}
			env.Go("tx", func(p *sim.Proc) {
				p.SleepUntil(sim.Time(10 * time.Microsecond))
				if err := devs[0].Send(p, q, []byte{7}); err != nil {
					t.Errorf("send: %v", err)
				}
				p.Sleep(3 * pp.IBSendLatency)
				if !handler {
					handled = q.ch.Len()
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if handled != 0 {
				t.Errorf("delayed %v, handler %v: the dead node took %d messages, want 0", delayed, handler, handled)
			}
			if inj.Stats().Drops != 1 {
				t.Errorf("delayed %v, handler %v: drops = %d, want 1", delayed, handler, inj.Stats().Drops)
			}
		}
	}
}

// TestLinkDelaySlowsOps asserts injected per-link delay is charged on
// both one-sided round trips and two-sided delivery.
func TestLinkDelaySlowsOps(t *testing.T) {
	pp := fabric.DefaultParams()
	const xtra = 5 * time.Microsecond
	env, _, devs, _ := faultNet(t, 3, &faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 0, Kind: faults.Delay, A: 0, B: 1, Extra: xtra},
	}})
	q := devs[1].Bind("svc")
	mr1 := devs[1].RegisterAtSetup(make([]byte, 64))
	mr2 := devs[2].RegisterAtSetup(make([]byte, 64))
	env.Go("driver", func(p *sim.Proc) {
		dst := make([]byte, 8)
		start := env.Now()
		if err := devs[0].Read(p, dst, mr1.Addr(), 0); err != nil {
			t.Fatalf("read: %v", err)
		}
		slowed := time.Duration(env.Now() - start)
		start = env.Now()
		if err := devs[0].Read(p, dst, mr2.Addr(), 0); err != nil {
			t.Fatalf("read: %v", err)
		}
		healthy := time.Duration(env.Now() - start)
		if want := healthy + 2*xtra; slowed != want {
			t.Errorf("delayed-link read took %v, want %v (healthy %v + 2×%v)", slowed, want, healthy, xtra)
		}
		// Two-sided delivery: one direction, one extra delay.
		sendStart := env.Now()
		if err := devs[0].Send(p, q, []byte{9}); err != nil {
			t.Fatalf("send: %v", err)
		}
		msg := q.Recv(p)
		msg.Release()
		lat := time.Duration(env.Now() - sendStart)
		if lat < pp.IBSendLatency+xtra {
			t.Errorf("delayed send delivered after %v, want >= %v", lat, pp.IBSendLatency+xtra)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLossDropsSendsDeterministically runs the same lossy messaging
// workload twice and expects the identical delivered subset, strictly
// smaller than the sent set.
func TestLossDropsSendsDeterministically(t *testing.T) {
	run := func() []byte {
		env, _, devs, _ := faultNet(t, 2, &faults.Plan{Seed: 99, Events: []faults.Event{
			{At: 0, Kind: faults.Loss, A: 0, B: 1, Prob: 0.4},
		}})
		q := devs[1].Bind("svc")
		var got []byte
		env.GoDaemon("rx", func(p *sim.Proc) {
			for {
				msg := q.Recv(p)
				got = append(got, msg.Data[0])
				msg.Release()
			}
		})
		env.Go("tx", func(p *sim.Proc) {
			for i := 0; i < 32; i++ {
				if err := devs[0].Send(p, q, []byte{byte(i)}); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				p.Sleep(10 * time.Microsecond)
			}
			p.Sleep(100 * time.Microsecond)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	g1, g2 := run(), run()
	if len(g1) == 0 || len(g1) == 32 {
		t.Fatalf("delivered %d/32 messages; loss plan should drop some but not all", len(g1))
	}
	if string(g1) != string(g2) {
		t.Fatalf("replay mismatch: %v vs %v", g1, g2)
	}
}
