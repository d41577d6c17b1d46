package gma

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

func pool(t testing.TB, seed int64, nodes int, arena int64) (*sim.Env, *Aggregator) {
	t.Helper()
	env := sim.NewEnv(seed)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	var ns []*cluster.Node
	for i := 0; i < nodes; i++ {
		ns = append(ns, cluster.NewNode(env, i, 2, arena*4))
	}
	a, err := New(nw, ns, Options{ArenaPerNode: arena})
	if err != nil {
		t.Fatal(err)
	}
	return env, a
}

func TestAllocReadWriteFree(t *testing.T) {
	env, a := pool(t, 1, 3, 1<<20)
	defer env.Shutdown()
	env.Go("p", func(p *sim.Proc) {
		c := a.Client(0)
		b, err := c.Alloc(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{0x7F}, 1000)
		if err := c.Write(p, b, 100, data); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 1000)
		if err := c.Read(p, got, b, 100); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip corrupted")
		}
		if err := c.Free(p, b); err != nil {
			t.Fatal(err)
		}
		if err := c.Free(p, b); err == nil {
			t.Fatal("double free allowed")
		}
		if err := c.Write(p, b, 0, data); err == nil {
			t.Fatal("write after free allowed")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillsToRemoteWhenLocalFull(t *testing.T) {
	env, a := pool(t, 1, 2, 1<<16)
	defer env.Shutdown()
	env.Go("p", func(p *sim.Proc) {
		c := a.Client(0)
		var bufs []*Buf
		// Exhaust the aggregate pool in 16 KiB pieces: half must land
		// remotely.
		remote := 0
		for i := 0; i < 8; i++ {
			b, err := c.Alloc(p, 1<<14)
			if err != nil {
				t.Fatalf("alloc %d: %v", i, err)
			}
			if b.arena.dev.Node.ID != 0 {
				remote++
			}
			bufs = append(bufs, b)
		}
		if remote == 0 {
			t.Fatal("nothing spilled to the remote arena")
		}
		if _, err := c.Alloc(p, 1); err == nil {
			t.Fatal("alloc beyond aggregate capacity succeeded")
		}
		for _, b := range bufs {
			if err := c.Free(p, b); err != nil {
				t.Fatal(err)
			}
		}
		if a.TotalFree() != 2<<16 {
			t.Fatalf("pool not fully restored: %d free", a.TotalFree())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingAllowsLargeRealloc(t *testing.T) {
	env, a := pool(t, 1, 1, 1<<16)
	defer env.Shutdown()
	env.Go("p", func(p *sim.Proc) {
		c := a.Client(0)
		var bufs []*Buf
		for i := 0; i < 4; i++ {
			b, err := c.Alloc(p, 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs, b)
		}
		// Free in an order that only coalesces if both directions work.
		for _, i := range []int{1, 3, 0, 2} {
			if err := c.Free(p, bufs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Alloc(p, 1<<16); err != nil {
			t.Fatalf("full-arena alloc after frees failed: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalOpsFasterThanRemote(t *testing.T) {
	env, a := pool(t, 1, 2, 1<<20)
	defer env.Shutdown()
	env.Go("p", func(p *sim.Proc) {
		c := a.Client(0)
		local, err := c.Alloc(p, 1<<16) // local arena is freest initially? equal; ties favour local
		if err != nil {
			t.Fatal(err)
		}
		if local.arena.dev.Node.ID != 0 {
			t.Fatalf("tie did not favour local arena (got node %d)", local.arena.dev.Node.ID)
		}
		// Force a remote allocation.
		remote, err := c.Alloc(p, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if remote.arena.dev.Node.ID == 0 {
			// Second alloc goes remote because node 1 now has more free.
			t.Fatalf("expected remote arena, got local")
		}
		data := make([]byte, 1<<14)
		t0 := p.Now()
		c.Write(p, local, 0, data)
		localCost := p.Now() - t0
		t1 := p.Now()
		c.Write(p, remote, 0, data)
		remoteCost := p.Now() - t1
		if localCost >= remoteCost {
			t.Fatalf("local write %v not cheaper than remote %v", localCost, remoteCost)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsChecks(t *testing.T) {
	env, a := pool(t, 1, 1, 1<<16)
	defer env.Shutdown()
	env.Go("p", func(p *sim.Proc) {
		c := a.Client(0)
		b, _ := c.Alloc(p, 100)
		if err := c.Write(p, b, 50, make([]byte, 51)); err == nil {
			t.Error("out-of-bounds write allowed")
		}
		if err := c.Read(p, make([]byte, 101), b, 0); err == nil {
			t.Error("out-of-bounds read allowed")
		}
		if _, err := c.Alloc(p, 0); err == nil {
			t.Error("zero-size alloc allowed")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: any alloc/free sequence conserves memory, never overlaps
// live buffers, and ends with a fully coalesced pool after freeing all.
func TestPropertyAllocatorInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		env, a := pool(t, 3, 2, 1<<16)
		defer env.Shutdown()
		ok := true
		env.Go("p", func(p *sim.Proc) {
			c := a.Client(0)
			type live struct {
				b *Buf
			}
			var bufs []live
			for _, op := range ops {
				if op%3 != 0 && len(bufs) > 0 {
					i := int(op) % len(bufs)
					if err := c.Free(p, bufs[i].b); err != nil {
						ok = false
						return
					}
					bufs = append(bufs[:i], bufs[i+1:]...)
					continue
				}
				size := int64(op%8192) + 1
				b, err := c.Alloc(p, size)
				if err != nil {
					continue // pool exhausted is fine
				}
				bufs = append(bufs, live{b: b})
				// Overlap check against all live buffers on same arena.
				for i := 0; i < len(bufs); i++ {
					for j := i + 1; j < len(bufs); j++ {
						x, y := bufs[i].b, bufs[j].b
						if x.arena != y.arena {
							continue
						}
						if x.off < y.off+y.size && y.off < x.off+x.size {
							ok = false
							return
						}
					}
				}
			}
			var liveBytes int64
			for _, l := range bufs {
				liveBytes += l.b.size
			}
			if a.TotalFree() != 2<<16-liveBytes {
				ok = false
				return
			}
			for _, l := range bufs {
				if err := c.Free(p, l.b); err != nil {
					ok = false
					return
				}
			}
			if a.TotalFree() != 2<<16 {
				ok = false
				return
			}
			// Fully coalesced: a whole-arena allocation must succeed.
			if _, err := c.Alloc(p, 1<<16); err != nil {
				ok = false
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocTimeChargedForRemote(t *testing.T) {
	env, a := pool(t, 1, 2, 1<<20)
	defer env.Shutdown()
	pp := fabric.DefaultParams()
	env.Go("p", func(p *sim.Proc) {
		c := a.Client(0)
		t0 := p.Now()
		c.Alloc(p, 1<<18) // local
		if p.Now() != t0 {
			t.Error("local alloc charged time")
		}
		t1 := p.Now()
		b, _ := c.Alloc(p, 1<<18) // remote (node 1 freer)
		if b.arena.dev.Node.ID == 0 {
			t.Fatal("expected remote")
		}
		if time.Duration(p.Now()-t1) != pp.IBAtomicLatency {
			t.Errorf("remote alloc cost %v, want one atomic", time.Duration(p.Now()-t1))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
