package verbs

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/sim"
)

// testNet builds a two-node verbs network.
func testNet(t testing.TB, n int) (*sim.Env, *Network, []*Device) {
	t.Helper()
	env := sim.NewEnv(1)
	nw := NewNetwork(env, fabric.DefaultParams())
	devs := make([]*Device, n)
	for i := 0; i < n; i++ {
		node := cluster.NewNode(env, i, 4, 1<<30)
		devs[i] = nw.Attach(node)
	}
	return env, nw, devs
}

func TestRDMAWriteThenRead(t *testing.T) {
	env, _, devs := testNet(t, 2)
	buf := make([]byte, 64)
	mr := devs[1].RegisterAtSetup(buf)
	env.Go("client", func(p *sim.Proc) {
		if err := devs[0].Write(p, mr.Addr(), 8, []byte("hello")); err != nil {
			t.Error(err)
		}
		got := make([]byte, 5)
		if err := devs[0].Read(p, got, mr.Addr(), 8); err != nil {
			t.Error(err)
		}
		if string(got) != "hello" {
			t.Errorf("read %q", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[8:13], []byte("hello")) {
		t.Fatalf("remote memory = %q", buf[8:13])
	}
}

func TestRDMAReadLatencyMatchesModel(t *testing.T) {
	env, nw, devs := testNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 4096))
	pp := nw.Params()
	var elapsed time.Duration
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		dst := make([]byte, 4096)
		if err := devs[0].Read(p, dst, mr.Addr(), 0); err != nil {
			t.Error(err)
		}
		elapsed = time.Duration(p.Now() - start)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := pp.IBReadLatency + pp.IBTxTime(4096)
	if elapsed != want {
		t.Fatalf("read took %v, want %v", elapsed, want)
	}
}

func TestRDMAOpsBypassRemoteCPU(t *testing.T) {
	env, _, devs := testNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 64))
	// Saturate the remote CPU completely.
	devs[1].Node.SpawnLoad(16, 10*time.Millisecond, 0)
	var rtt time.Duration
	env.Go("client", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond) // let load build up
		start := p.Now()
		dst := make([]byte, 8)
		if err := devs[0].Read(p, dst, mr.Addr(), 0); err != nil {
			t.Error(err)
		}
		if _, err := devs[0].FetchAdd(p, mr.Addr(), 0, 1); err != nil {
			t.Error(err)
		}
		rtt = time.Duration(p.Now() - start)
	})
	if err := env.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if rtt > 100*time.Microsecond {
		t.Fatalf("one-sided ops took %v under remote load; must be load-independent", rtt)
	}
}

func TestCompareSwapSemantics(t *testing.T) {
	env, _, devs := testNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 16))
	env.Go("client", func(p *sim.Proc) {
		old, err := devs[0].CompareSwap(p, mr.Addr(), 0, 0, 42)
		if err != nil || old != 0 {
			t.Errorf("first CAS: old=%d err=%v", old, err)
		}
		old, err = devs[0].CompareSwap(p, mr.Addr(), 0, 0, 99)
		if err != nil || old != 42 {
			t.Errorf("failed CAS should return current value: old=%d err=%v", old, err)
		}
		if mr.Uint64At(0) != 42 {
			t.Errorf("failed CAS mutated memory: %d", mr.Uint64At(0))
		}
		old, err = devs[0].CompareSwap(p, mr.Addr(), 0, 42, 7)
		if err != nil || old != 42 {
			t.Errorf("matching CAS: old=%d err=%v", old, err)
		}
		if mr.Uint64At(0) != 7 {
			t.Errorf("matching CAS did not store: %d", mr.Uint64At(0))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFetchAddAccumulates(t *testing.T) {
	env, _, devs := testNet(t, 3)
	mr := devs[0].RegisterAtSetup(make([]byte, 8))
	for i := 1; i <= 2; i++ {
		d := devs[i]
		env.Go(d.Node.Name, func(p *sim.Proc) {
			for k := 0; k < 10; k++ {
				if _, err := d.FetchAdd(p, mr.Addr(), 0, 3); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mr.Uint64At(0); got != 60 {
		t.Fatalf("counter = %d, want 60", got)
	}
}

// Property: concurrent FetchAdds from many nodes never lose updates.
func TestPropertyAtomicConservation(t *testing.T) {
	f := func(counts []uint8) bool {
		if len(counts) > 6 {
			counts = counts[:6]
		}
		env := sim.NewEnv(5)
		nw := NewNetwork(env, fabric.DefaultParams())
		home := nw.Attach(cluster.NewNode(env, 0, 1, 1<<20))
		mr := home.RegisterAtSetup(make([]byte, 8))
		var want uint64
		for i, c := range counts {
			n := int(c % 20)
			want += uint64(n)
			d := nw.Attach(cluster.NewNode(env, i+1, 1, 1<<20))
			env.Go(d.Node.Name, func(p *sim.Proc) {
				for k := 0; k < n; k++ {
					p.Sleep(time.Duration(env.Rand().Intn(1000)))
					if _, err := d.FetchAdd(p, mr.Addr(), 0, 1); err != nil {
						t.Error(err)
					}
				}
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		return mr.Uint64At(0) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: exactly one of N concurrent CAS(0->id) attempts wins.
func TestPropertyCASMutualExclusion(t *testing.T) {
	f := func(nNodes uint8) bool {
		n := int(nNodes%8) + 2
		env := sim.NewEnv(9)
		nw := NewNetwork(env, fabric.DefaultParams())
		home := nw.Attach(cluster.NewNode(env, 0, 1, 1<<20))
		mr := home.RegisterAtSetup(make([]byte, 8))
		winners := 0
		for i := 1; i <= n; i++ {
			d := nw.Attach(cluster.NewNode(env, i, 1, 1<<20))
			id := uint64(i)
			env.Go(d.Node.Name, func(p *sim.Proc) {
				p.Sleep(time.Duration(env.Rand().Intn(100)))
				old, err := d.CompareSwap(p, mr.Addr(), 0, 0, id)
				if err != nil {
					t.Error(err)
				}
				if old == 0 {
					winners++
				}
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		return winners == 1 && mr.Uint64At(0) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	env, _, devs := testNet(t, 2)
	var got Message
	q := devs[1].Bind("svc")
	env.Go("server", func(p *sim.Proc) { got = q.Recv(p) })
	env.Go("client", func(p *sim.Proc) {
		if err := devs[0].Send(p, q, []byte("ping")); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got.From != 0 || string(got.Data) != "ping" {
		t.Fatalf("got %+v", got)
	}
}

func TestSendCopiesData(t *testing.T) {
	env, _, devs := testNet(t, 2)
	payload := []byte("aaaa")
	var got Message
	q := devs[1].Bind("svc")
	env.Go("server", func(p *sim.Proc) { got = q.Recv(p) })
	env.Go("client", func(p *sim.Proc) {
		if err := devs[0].Send(p, q, payload); err != nil {
			t.Error(err)
		}
		copy(payload, "bbbb") // mutate after send; receiver must not see it
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "aaaa" {
		t.Fatalf("send aliased caller buffer: got %q", got.Data)
	}
}

func TestTCPRecvChargesRemoteCPU(t *testing.T) {
	// The same request served over IB send/recv vs TCP: under heavy
	// receiver load the TCP response must be much slower, the IB response
	// must not care (receiver process still needs to run, but protocol
	// processing is the dominant modelled cost).
	lat := func(loaded bool) time.Duration {
		env := sim.NewEnv(3)
		nw := NewNetwork(env, fabric.DefaultParams())
		a := nw.Attach(cluster.NewNode(env, 0, 1, 1<<20))
		b := nw.Attach(cluster.NewNode(env, 1, 1, 1<<20))
		if loaded {
			b.Node.SpawnLoad(8, 5*time.Millisecond, 0)
		}
		req, reply := b.Bind("rpc"), a.Bind("rpc-reply")
		env.Go("server", func(p *sim.Proc) {
			req.RecvTCP(p)
			if err := b.SendTCP(p, reply, []byte("pong")); err != nil {
				t.Error(err)
			}
		})
		var rtt time.Duration
		env.Go("client", func(p *sim.Proc) {
			p.Sleep(20 * time.Millisecond)
			start := p.Now()
			if err := a.SendTCP(p, req, []byte("ping")); err != nil {
				t.Error(err)
			}
			reply.RecvTCP(p)
			rtt = time.Duration(p.Now() - start)
		})
		if err := env.RunUntil(sim.Time(200 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		return rtt
	}
	unloaded, loaded := lat(false), lat(true)
	if unloaded == 0 || loaded == 0 {
		t.Fatal("rpc did not complete")
	}
	if loaded < 4*unloaded {
		t.Fatalf("TCP rpc under load %v vs unloaded %v: load sensitivity missing", loaded, unloaded)
	}
}

func TestOpErrors(t *testing.T) {
	env, nw, devs := testNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 16))
	// Node 4 leaves holes at 2 and 3; 5 is one past the last node.
	nw.Attach(cluster.NewNode(env, 4, 4, 1<<30))
	for _, id := range []int{-1, 3, 5, 99} {
		if d := nw.Device(id); d != nil {
			t.Errorf("Device(%d) = node %d, want nil", id, d.Node.ID)
		}
	}
	env.Go("client", func(p *sim.Proc) {
		for _, c := range []struct {
			r      RemoteAddr
			reason string
		}{
			{RemoteAddr{Node: 99, Key: 1}, "no such node"},
			{RemoteAddr{Node: -1, Key: 1}, "no such node"},
			{RemoteAddr{Node: 3, Key: 1}, "no such node"}, // a hole
			{RemoteAddr{Node: 5, Key: 1}, "no such node"}, // past the last node
			{RemoteAddr{Node: 1, Key: 999}, "invalid rkey"},
			{RemoteAddr{Node: 1, Key: 0}, "invalid rkey"}, // never issued
			{RemoteAddr{Node: 1, Key: 2}, "invalid rkey"}, // past the last key
			{RemoteAddr{Node: 4, Key: 1}, "invalid rkey"}, // a device with no regions
		} {
			if err := devs[0].Read(p, make([]byte, 8), c.r, 0); err == nil {
				t.Errorf("read of %+v succeeded", c.r)
			} else if got := opReason(t, err); got != c.reason {
				t.Errorf("read of %+v: reason %q, want %q", c.r, got, c.reason)
			}
			if _, err := devs[0].CompareSwap(p, c.r, 0, 0, 1); err == nil || opReason(t, err) != c.reason {
				t.Errorf("cas on %+v: %v, want %q", c.r, err, c.reason)
			}
		}
		if err := devs[0].Write(p, mr.Addr(), 12, make([]byte, 8)); err == nil {
			t.Error("out-of-bounds write succeeded")
		}
		if _, err := devs[0].CompareSwap(p, mr.Addr(), 3, 0, 1); err == nil {
			t.Error("misaligned atomic succeeded")
		}
		if _, err := devs[0].FetchAdd(p, mr.Addr(), 16, 1); err == nil {
			t.Error("out-of-bounds atomic succeeded")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeregister(t *testing.T) {
	env, _, devs := testNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 16))
	env.Go("client", func(p *sim.Proc) {
		mr.Deregister()
		if err := devs[0].Read(p, make([]byte, 8), mr.Addr(), 0); err == nil {
			t.Error("read of deregistered MR succeeded")
		}
		// Keys are never reused: a later registration gets a fresh key and
		// the stale one keeps failing.
		mr2 := devs[1].Register(p, make([]byte, 16))
		if mr2.Addr().Key == mr.Addr().Key {
			t.Errorf("key %d reissued", mr.Addr().Key)
		}
		if err := devs[0].Read(p, make([]byte, 8), mr.Addr(), 0); err == nil || opReason(t, err) != "invalid rkey" {
			t.Errorf("stale key after a later registration: %v", err)
		}
		if err := devs[0].Read(p, make([]byte, 8), mr2.Addr(), 0); err != nil {
			t.Errorf("read of the new region: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterChargesTime(t *testing.T) {
	env, nw, devs := testNet(t, 1)
	var elapsed time.Duration
	env.Go("p", func(p *sim.Proc) {
		start := p.Now()
		devs[0].Register(p, make([]byte, 64*1024))
		elapsed = time.Duration(p.Now() - start)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if want := nw.Params().RegisterTime(64 * 1024); elapsed != want {
		t.Fatalf("registration took %v, want %v", elapsed, want)
	}
}

func TestCompletionQueueOverlapsReads(t *testing.T) {
	// Two posted reads from different targets overlap: total time is far
	// below the sum of two synchronous reads.
	env, nw, devs := testNet(t, 3)
	mr1 := devs[1].RegisterAtSetup(make([]byte, 64<<10))
	mr2 := devs[2].RegisterAtSetup(make([]byte, 64<<10))
	pp := nw.Params()
	var elapsed time.Duration
	env.Go("client", func(p *sim.Proc) {
		cq := devs[0].CreateCQ("c", 8)
		start := p.Now()
		devs[0].PostList(cq, []WR{{ID: 1, Op: OpRead, Target: mr1.Addr(), Dst: make([]byte, 64<<10)}})
		devs[0].PostList(cq, []WR{{ID: 2, Op: OpRead, Target: mr2.Addr(), Dst: make([]byte, 64<<10)}})
		seen := map[uint64]bool{}
		for i := 0; i < 2; i++ {
			c := cq.Poll(p)
			if c.Err != nil {
				t.Error(c.Err)
			}
			seen[c.ID] = true
		}
		elapsed = time.Duration(p.Now() - start)
		if !seen[1] || !seen[2] {
			t.Errorf("missing completions: %v", seen)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	oneRead := pp.IBReadLatency + pp.IBTxTime(64<<10)
	if elapsed >= 2*oneRead {
		t.Fatalf("posted reads did not overlap: %v vs 2x%v", elapsed, oneRead)
	}
}

func TestCompletionQueueAtomics(t *testing.T) {
	env, _, devs := testNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 8))
	env.Go("client", func(p *sim.Proc) {
		cq := devs[0].CreateCQ("c", 8)
		devs[0].PostList(cq, []WR{{ID: 1, Op: OpFAA, Target: mr.Addr(), Delta: 5}})
		c := cq.Poll(p)
		if c.Err != nil || c.Old != 0 {
			t.Errorf("faa completion: %+v", c)
		}
		devs[0].PostList(cq, []WR{{ID: 2, Op: OpCAS, Target: mr.Addr(), Compare: 5, Swap: 9}})
		c = cq.Poll(p)
		if c.Err != nil || c.Old != 5 {
			t.Errorf("cas completion: %+v", c)
		}
		if mr.Uint64At(0) != 9 {
			t.Errorf("memory = %d", mr.Uint64At(0))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionQueueErrorDelivery(t *testing.T) {
	env, _, devs := testNet(t, 2)
	env.Go("client", func(p *sim.Proc) {
		cq := devs[0].CreateCQ("c", 8)
		devs[0].PostList(cq, []WR{{ID: 7, Op: OpWrite, Target: RemoteAddr{Node: 1, Key: 999}, Src: []byte{1}}})
		c := cq.Poll(p)
		if c.Err == nil || c.ID != 7 {
			t.Errorf("expected error completion, got %+v", c)
		}
		if cq.ch.Len() != 0 {
			t.Error("spurious completion")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
