package ddss

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

func testSubstrate(seed int64, n int) (*sim.Env, *Substrate, []*cluster.Node) {
	env := sim.NewEnv(seed)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 64<<20)
	}
	return env, New(nw, nodes, Options{}), nodes
}

func TestPutGetRoundTripAllModels(t *testing.T) {
	models := append(append([]Coherence{}, Models...), Temporal)
	for _, coh := range models {
		t.Run(coh.String(), func(t *testing.T) {
			env, ss, _ := testSubstrate(1, 3)
			defer env.Shutdown()
			env.Go("w", func(p *sim.Proc) {
				c := ss.Client(1)
				h, err := c.Allocate(p, "seg", 4096, coh, 0)
				if err != nil {
					t.Error(err)
					return
				}
				want := bytes.Repeat([]byte{0x5A}, 1000)
				if _, err := h.Put(p, want); err != nil {
					t.Error(err)
					return
				}
				// Read from a different node.
				c2 := ss.Client(2)
				h2, err := c2.Open("seg")
				if err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, 1000)
				if _, err := h2.Get(p, got); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%v: round trip corrupted", coh)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllocateErrors(t *testing.T) {
	env, ss, _ := testSubstrate(1, 2)
	defer env.Shutdown()
	env.Go("w", func(p *sim.Proc) {
		c := ss.Client(0)
		if _, err := c.Allocate(p, "a", 0, Null, 0); err == nil {
			t.Error("zero size allowed")
		}
		if _, err := c.Allocate(p, "a", 100, Null, 0); err != nil {
			t.Error(err)
		}
		if _, err := c.Allocate(p, "a", 100, Null, 0); err == nil {
			t.Error("duplicate key allowed")
		}
		if _, err := c.Allocate(p, "b", 100, Null, 99); err == nil {
			t.Error("bad home node allowed")
		}
		if _, err := c.Allocate(p, "huge", 1<<30, Null, 0); err == nil {
			t.Error("over-capacity alloc allowed")
		}
		if _, err := c.Open("nope"); err == nil {
			t.Error("open of missing segment succeeded")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutLatencyOrdering(t *testing.T) {
	// Fig 3a's shape: Null is the cheapest put; Strict the most
	// expensive; everything is microseconds, far below a TCP round trip.
	lat := map[Coherence]time.Duration{}
	for _, coh := range Models {
		env, ss, _ := testSubstrate(1, 2)
		coh := coh
		env.Go("w", func(p *sim.Proc) {
			c := ss.Client(1)
			h, err := c.Allocate(p, "seg", 64, coh, 0)
			if err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if _, err := h.Put(p, []byte{1}); err != nil {
				t.Fatal(err)
			}
			lat[coh] = time.Duration(p.Now() - start)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
	}
	for _, coh := range Models {
		if coh == Null {
			continue
		}
		if lat[coh] <= lat[Null] {
			t.Fatalf("put latency %v (%v) <= Null (%v)", coh, lat[coh], lat[Null])
		}
		if lat[coh] > lat[Strict] {
			t.Fatalf("put latency %v (%v) above Strict (%v)", coh, lat[coh], lat[Strict])
		}
	}
	if lat[Strict] > 55*time.Microsecond {
		t.Fatalf("1-byte Strict put %v exceeds the paper's ~55µs bound", lat[Strict])
	}
}

func TestStrictMutualExclusionOfWriters(t *testing.T) {
	env, ss, _ := testSubstrate(1, 4)
	defer env.Shutdown()
	env.Go("setup", func(p *sim.Proc) {
		c := ss.Client(0)
		if _, err := c.Allocate(p, "seg", 8, Strict, 0); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 4; i++ {
			i := i
			env.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				h, err := ss.Client(i).Open("seg")
				if err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < 5; k++ {
					if _, err := h.Put(p, []byte{byte(i), byte(k)}); err != nil {
						t.Error(err)
					}
				}
			})
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVersionMonotonic(t *testing.T) {
	env, ss, _ := testSubstrate(1, 3)
	defer env.Shutdown()
	env.Go("w", func(p *sim.Proc) {
		c := ss.Client(1)
		h, err := c.Allocate(p, "seg", 64, Version, 0)
		if err != nil {
			t.Fatal(err)
		}
		var last uint64
		for i := 0; i < 5; i++ {
			v, err := h.Put(p, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			if v <= last && i > 0 {
				t.Fatalf("version not monotonic: %d after %d", v, last)
			}
			last = v
		}
		buf := make([]byte, 1)
		v, err := h.Get(p, buf)
		if err != nil {
			t.Fatal(err)
		}
		if v != last || buf[0] != 4 {
			t.Fatalf("get saw version %d (want %d), data %d", v, last, buf[0])
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaRetainsOldVersions(t *testing.T) {
	env, ss, _ := testSubstrate(1, 3)
	defer env.Shutdown()
	env.Go("w", func(p *sim.Proc) {
		c := ss.Client(1)
		h, err := c.Allocate(p, "seg", 16, Delta, 0)
		if err != nil {
			t.Fatal(err)
		}
		var versions []uint64
		for i := 1; i <= 3; i++ {
			v, err := h.Put(p, []byte{byte(i * 10)})
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, v)
		}
		buf := make([]byte, 1)
		for i, v := range versions {
			if err := h.GetDelta(p, buf, v); err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte((i+1)*10) {
				t.Fatalf("delta %d: got %d", v, buf[0])
			}
		}
		if err := h.GetDelta(p, buf, versions[2]+10); err == nil {
			t.Error("future version readable")
		}
		// Overwrite the ring; the first version must age out.
		for i := 4; i <= 3+DeltaSlots; i++ {
			if _, err := h.Put(p, []byte{byte(i * 10)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.GetDelta(p, buf, versions[0]); err == nil {
			t.Error("aged-out delta still readable")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTemporalServesFromCacheWithinTTL(t *testing.T) {
	env, ss, _ := testSubstrate(1, 3)
	defer env.Shutdown()
	env.Go("w", func(p *sim.Proc) {
		c := ss.Client(1)
		h, err := c.Allocate(p, "seg", 64, Temporal, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Put(p, []byte{1}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		if _, err := h.Get(p, buf); err != nil { // populates the cache
			t.Fatal(err)
		}
		if _, err := h.Put(p, []byte{2}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Get(p, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 1 {
			t.Fatalf("temporal get within TTL returned fresh data %d; want stale 1", buf[0])
		}
		p.Sleep(DefaultTTL + time.Millisecond)
		if _, err := h.Get(p, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 2 {
			t.Fatalf("temporal get after TTL returned %d; want 2", buf[0])
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementPicksLeastLoaded(t *testing.T) {
	env, ss, nodes := testSubstrate(1, 3)
	defer env.Shutdown()
	env.Go("w", func(p *sim.Proc) {
		nodes[0].Alloc(32 << 20)
		nodes[1].Alloc(16 << 20)
		c := ss.Client(0)
		h, err := c.Allocate(p, "auto", 1024, Null, NodeAuto)
		if err != nil {
			t.Fatal(err)
		}
		if h.HomeNode() != 2 {
			t.Fatalf("placed on node %d, want 2 (most free memory)", h.HomeNode())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetSizeChecks(t *testing.T) {
	env, ss, _ := testSubstrate(1, 2)
	defer env.Shutdown()
	env.Go("w", func(p *sim.Proc) {
		c := ss.Client(0)
		h, err := c.Allocate(p, "s", 16, Null, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Put(p, make([]byte, 17)); err == nil {
			t.Error("oversized put allowed")
		}
		if _, err := h.Get(p, make([]byte, 17)); err == nil {
			t.Error("oversized get allowed")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGetIsLoadResilient(t *testing.T) {
	// A DDSS get from a loaded home node must not slow down: the home CPU
	// is not on the path.
	run := func(loaded bool) time.Duration {
		env, ss, nodes := testSubstrate(1, 2)
		defer env.Shutdown()
		if loaded {
			nodes[0].SpawnLoad(8, 5*time.Millisecond, 0)
		}
		var d time.Duration
		env.Go("w", func(p *sim.Proc) {
			c := ss.Client(1)
			h, err := c.Allocate(p, "seg", 4096, Null, 0)
			if err != nil {
				t.Fatal(err)
			}
			p.Sleep(20 * time.Millisecond)
			start := p.Now()
			if _, err := h.Get(p, make([]byte, 4096)); err != nil {
				t.Fatal(err)
			}
			d = time.Duration(p.Now() - start)
		})
		if err := env.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		return d
	}
	idle, busy := run(false), run(true)
	if busy > idle+time.Microsecond {
		t.Fatalf("get latency rose under home load: %v vs %v", busy, idle)
	}
}

func TestCoherenceString(t *testing.T) {
	names := []string{"Null", "Write", "Read", "Strict", "Version", "Delta", "Temporal"}
	for i, want := range names {
		if Coherence(i).String() != want {
			t.Fatalf("Coherence(%d) = %q, want %q", i, Coherence(i).String(), want)
		}
	}
	if Coherence(42).String() != "Coherence(42)" {
		t.Fatal("unknown coherence string")
	}
}

// Property: last write wins — after any sequence of puts from random
// nodes, a Strict get returns the bytes of the final put.
func TestPropertyLastWriteWins(t *testing.T) {
	f := func(writes []uint8) bool {
		if len(writes) == 0 {
			return true
		}
		if len(writes) > 12 {
			writes = writes[:12]
		}
		env, ss, _ := testSubstrate(9, 3)
		defer env.Shutdown()
		ok := true
		env.Go("driver", func(p *sim.Proc) {
			c := ss.Client(0)
			h, err := c.Allocate(p, "seg", 8, Strict, 0)
			if err != nil {
				ok = false
				return
			}
			for _, w := range writes {
				src := ss.Client(1 + int(w)%2)
				hh, err := src.Open("seg")
				if err != nil {
					ok = false
					return
				}
				if _, err := hh.Put(p, []byte{w}); err != nil {
					ok = false
					return
				}
			}
			buf := make([]byte, 1)
			if _, err := h.Get(p, buf); err != nil {
				ok = false
				return
			}
			ok = buf[0] == writes[len(writes)-1]
		})
		if err := env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent readers under Read coherence never observe a torn
// write (all bytes of a get come from one put).
func TestPropertyNoTornReads(t *testing.T) {
	f := func(rounds uint8) bool {
		n := int(rounds)%6 + 2
		env, ss, _ := testSubstrate(11, 3)
		defer env.Shutdown()
		rng := rand.New(rand.NewSource(11))
		ok := true
		env.Go("setup", func(p *sim.Proc) {
			c := ss.Client(0)
			if _, err := c.Allocate(p, "seg", 256, Read, 0); err != nil {
				ok = false
				return
			}
			wh, _ := ss.Client(1).Open("seg")
			// Seed so that reads before the first put see uniform zeros.
			if _, err := wh.Put(p, bytes.Repeat([]byte{0}, 256)); err != nil {
				ok = false
				return
			}
			env.Go("writer", func(p *sim.Proc) {
				for i := 1; i <= n; i++ {
					wh.Put(p, bytes.Repeat([]byte{byte(i)}, 256))
					p.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
				}
			})
			env.Go("reader", func(p *sim.Proc) {
				rh, _ := ss.Client(2).Open("seg")
				buf := make([]byte, 256)
				for i := 0; i < n; i++ {
					if _, err := rh.Get(p, buf); err != nil {
						ok = false
						return
					}
					for _, b := range buf[1:] {
						if b != buf[0] {
							ok = false
							return
						}
					}
					p.Sleep(time.Duration(rng.Intn(15)) * time.Microsecond)
				}
			})
		})
		if err := env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitVersionBlocksUntilPut(t *testing.T) {
	env, ss, _ := testSubstrate(1, 3)
	defer env.Shutdown()
	var sawVersion uint64
	var wokeAt sim.Time
	env.Go("setup", func(p *sim.Proc) {
		c := ss.Client(0)
		if _, err := c.Allocate(p, "seg", 64, Version, 0); err != nil {
			t.Error(err)
			return
		}
		env.Go("consumer", func(p *sim.Proc) {
			h, _ := ss.Client(1).Open("seg")
			v, err := h.WaitVersion(p, 2, 0)
			if err != nil {
				t.Error(err)
				return
			}
			sawVersion = v
			wokeAt = p.Now()
		})
		env.Go("producer", func(p *sim.Proc) {
			h, _ := ss.Client(2).Open("seg")
			p.Sleep(5 * time.Millisecond)
			h.Put(p, []byte{1})
			p.Sleep(5 * time.Millisecond)
			h.Put(p, []byte{2})
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if sawVersion < 2 {
		t.Fatalf("woke at version %d", sawVersion)
	}
	if wokeAt < sim.Time(10*time.Millisecond) {
		t.Fatalf("woke too early: %v", wokeAt)
	}
}

// TestAllocateRejectsUnknownCoherence: the scripts are indexed by the
// model, so Allocate refuses one that is not a Coherence constant before
// it charges any time or memory.
func TestAllocateRejectsUnknownCoherence(t *testing.T) {
	env, ss, nodes := testSubstrate(1, 2)
	defer env.Shutdown()
	env.Go("w", func(p *sim.Proc) {
		for _, coh := range []Coherence{Temporal + 1, -1} {
			before, at := nodes[0].MemFree(), p.Now()
			_, err := ss.Client(1).Allocate(p, "seg", 64, coh, 0)
			if want := fmt.Sprintf(`ddss: allocate "seg": unknown coherence %v`, coh); err == nil || err.Error() != want {
				t.Errorf("%v: err = %v, want %s", coh, err, want)
			}
			if nodes[0].MemFree() != before || p.Now() != at {
				t.Errorf("%v: refused allocation took %d bytes and %v", coh, before-nodes[0].MemFree(), p.Now()-at)
			}
			if _, err := ss.Client(1).Open("seg"); err == nil {
				t.Errorf("%v: refused segment opens", coh)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDDSSSteadyStateAllocationFree asserts that once warm, every model's
// put and get, remote and home — header words staged in the pooled
// operation record, Temporal TTL refreshes reusing the cached copy — plus
// GetDelta and a WaitVersion that polls, allocate nothing.
func TestDDSSSteadyStateAllocationFree(t *testing.T) {
	env, ss, _ := testSubstrate(1, 3)
	var hs []*Handle
	var delta, wait *Handle
	env.Go("setup", func(p *sim.Proc) {
		c := ss.Client(1)
		for coh := Null; coh <= Temporal; coh++ {
			for _, home := range []int{0, 1} {
				h, err := c.Allocate(p, fmt.Sprintf("%v%d", coh, home), 1024, coh, home)
				if err != nil {
					t.Error(err)
					return
				}
				hs = append(hs, h)
				if coh == Delta && home == 0 {
					delta = h
				}
			}
		}
		var err error
		if wait, err = c.Allocate(p, "wait", 64, Version, 0); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512)
	buf := make([]byte, 512)
	env.GoDaemon("producer", func(p *sim.Proc) {
		h, err := ss.Client(2).Open("wait")
		if err != nil {
			t.Error(err)
			return
		}
		for {
			p.Sleep(20 * time.Microsecond)
			if _, err := h.Put(p, data[:8]); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.GoDaemon("worker", func(p *sim.Proc) {
		for {
			for _, h := range hs {
				if _, err := h.Put(p, data); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.Get(p, buf); err != nil {
					t.Error(err)
					return
				}
			}
			v, err := delta.Get(p, buf)
			if err == nil {
				err = delta.GetDelta(p, buf, v)
			}
			if err != nil {
				t.Error(err)
				return
			}
			if v, err = wait.Get(p, buf[:8]); err == nil {
				_, err = wait.WaitVersion(p, v+1, 2*time.Microsecond)
			}
			if err != nil {
				t.Error(err)
				return
			}
			p.Sleep(DefaultTTL) // expire the Temporal copies: the next Gets refresh
		}
	})
	limit := sim.Time(0)
	step := func() {
		limit = limit.Add(100 * time.Millisecond)
		if err := env.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the operation records, verbs op pools, the cached copies
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("steady-state ddss operations allocate %.1f allocs per step, want 0", allocs)
	}
	env.Shutdown()
}
