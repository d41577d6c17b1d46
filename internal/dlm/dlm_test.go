package dlm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

var allKinds = []Kind{SRSL, DQNL, NCoSED}

// tryLock is TryLock on a healthy run, where any error fails the test.
func tryLock(t *testing.T, p *sim.Proc, c Client, lock int, mode Mode) bool {
	ok, err := c.TryLock(p, lock, mode)
	if err != nil {
		t.Errorf("trylock %d %v: %v", lock, mode, err)
	}
	return ok
}

func testManager(seed int64, kind Kind, nNodes, nLocks int) (*sim.Env, *Manager, []*cluster.Node) {
	env := sim.NewEnv(seed)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	nodes := make([]*cluster.Node, nNodes)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 1<<30)
	}
	m := New(nw, nodes, Options{Kind: kind, NumLocks: nLocks})
	return env, m, nodes
}

// checker validates lock-semantics invariants as grants and releases
// happen (the simulation is single-threaded, so plain fields suffice).
type checker struct {
	t          *testing.T
	kind       Kind
	excl       int
	shared     int
	violations int
}

func (ck *checker) acquired(mode Mode) {
	if mode == Exclusive {
		if ck.excl != 0 || ck.shared != 0 {
			ck.t.Errorf("%v: exclusive granted while %d excl / %d shared held", ck.kind, ck.excl, ck.shared)
			ck.violations++
		}
		ck.excl++
		return
	}
	if ck.excl != 0 {
		ck.t.Errorf("%v: shared granted while exclusive held", ck.kind)
		ck.violations++
	}
	ck.shared++
}

func (ck *checker) released(mode Mode) {
	if mode == Exclusive {
		ck.excl--
	} else {
		ck.shared--
	}
}

func TestMutualExclusionAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			env, m, nodes := testManager(1, kind, 6, 1)
			defer env.Shutdown()
			rng := rand.New(rand.NewSource(1))
			ck := &checker{t: t, kind: kind}
			for i := 1; i < 6; i++ {
				node := nodes[i]
				env.Go(fmt.Sprintf("worker%d", i), func(p *sim.Proc) {
					c := m.Client(node.ID)
					for k := 0; k < 5; k++ {
						p.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
						c.Lock(p, 0, Exclusive)
						ck.acquired(Exclusive)
						p.Sleep(50 * time.Microsecond)
						ck.released(Exclusive)
						c.Unlock(p, 0, Exclusive)
					}
				})
			}
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSharedReadersCoexist(t *testing.T) {
	// SRSL and N-CoSED support true shared mode: concurrent readers must
	// overlap in time.
	for _, kind := range []Kind{SRSL, NCoSED} {
		t.Run(kind.String(), func(t *testing.T) {
			env, m, nodes := testManager(1, kind, 6, 1)
			defer env.Shutdown()
			maxConcurrent, cur := 0, 0
			for i := 1; i < 6; i++ {
				node := nodes[i]
				env.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
					c := m.Client(node.ID)
					c.Lock(p, 0, Shared)
					cur++
					if cur > maxConcurrent {
						maxConcurrent = cur
					}
					p.Sleep(time.Millisecond)
					cur--
					c.Unlock(p, 0, Shared)
				})
			}
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if maxConcurrent < 5 {
				t.Fatalf("%v: only %d readers overlapped, want 5", kind, maxConcurrent)
			}
		})
	}
}

func TestReadersExcludeWriter(t *testing.T) {
	for _, kind := range []Kind{SRSL, NCoSED} {
		t.Run(kind.String(), func(t *testing.T) {
			env, m, nodes := testManager(1, kind, 6, 1)
			defer env.Shutdown()
			rng := rand.New(rand.NewSource(1))
			ck := &checker{t: t, kind: kind}
			for i := 1; i < 5; i++ {
				node := nodes[i]
				env.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
					c := m.Client(node.ID)
					for k := 0; k < 3; k++ {
						p.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
						c.Lock(p, 0, Shared)
						ck.acquired(Shared)
						p.Sleep(80 * time.Microsecond)
						ck.released(Shared)
						c.Unlock(p, 0, Shared)
					}
				})
			}
			env.Go("writer", func(p *sim.Proc) {
				c := m.Client(nodes[5].ID)
				for k := 0; k < 3; k++ {
					p.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					c.Lock(p, 0, Exclusive)
					ck.acquired(Exclusive)
					p.Sleep(100 * time.Microsecond)
					ck.released(Exclusive)
					c.Unlock(p, 0, Exclusive)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQueuedWriterNotOvertaken pins the FIFO rule: once a writer is
// queued behind a shared holder, a later reader is not granted past it —
// its TryLock fails and its Lock is granted after the writer's.
func TestQueuedWriterNotOvertaken(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			env, m, nodes := testManager(1, kind, 4, 1)
			defer env.Shutdown()
			var order []string
			env.Go("a", func(p *sim.Proc) {
				c := m.Client(nodes[1].ID)
				c.Lock(p, 0, Shared)
				order = append(order, "a")
				p.Sleep(200 * time.Microsecond)
				c.Unlock(p, 0, Shared)
			})
			env.Go("w", func(p *sim.Proc) {
				p.Sleep(50 * time.Microsecond)
				c := m.Client(nodes[2].ID)
				c.Lock(p, 0, Exclusive)
				order = append(order, "w")
				p.Sleep(50 * time.Microsecond)
				c.Unlock(p, 0, Exclusive)
			})
			env.Go("b", func(p *sim.Proc) {
				p.Sleep(100 * time.Microsecond)
				c := m.Client(nodes[3].ID)
				if tryLock(t, p, c, 0, Shared) {
					t.Errorf("%v: shared TryLock granted past a queued writer", kind)
					c.Unlock(p, 0, Shared)
				}
				c.Lock(p, 0, Shared)
				order = append(order, "b")
				c.Unlock(p, 0, Shared)
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(order); got != "[a w b]" {
				t.Fatalf("%v: grant order %s, want [a w b]", kind, got)
			}
		})
	}
}

func TestManyLocksIndependent(t *testing.T) {
	// Operations on distinct locks must not serialize against each other.
	for _, kind := range allKinds {
		env, m, nodes := testManager(1, kind, 4, 8)
		defer env.Shutdown()
		done := 0
		for i := 1; i < 4; i++ {
			node := nodes[i]
			lock := i * 2
			env.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				c := m.Client(node.ID)
				c.Lock(p, lock, Exclusive)
				p.Sleep(10 * time.Millisecond)
				c.Unlock(p, lock, Exclusive)
				done++
			})
		}
		if err := env.Run(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		// With independent locks everything overlaps: ~10ms total, not 30.
		if env.Now() > sim.Time(15*time.Millisecond) {
			t.Fatalf("%v: independent locks serialized: took %v", kind, env.Now())
		}
		if done != 3 {
			t.Fatalf("%v: %d workers finished", kind, done)
		}
	}
}

func TestUncontendedLatencyOneSidedBeatsServer(t *testing.T) {
	// An uncontended N-CoSED exclusive acquire is one CAS (~one atomic
	// RTT); SRSL pays two messages plus server CPU.
	lat := func(kind Kind) time.Duration {
		env, m, nodes := testManager(1, kind, 3, 1)
		defer env.Shutdown()
		var d time.Duration
		env.Go("w", func(p *sim.Proc) {
			c := m.Client(nodes[1].ID)
			start := p.Now()
			c.Lock(p, 0, Exclusive)
			d = time.Duration(p.Now() - start)
			c.Unlock(p, 0, Exclusive)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	srsl, dqnl, nco := lat(SRSL), lat(DQNL), lat(NCoSED)
	if nco >= srsl {
		t.Fatalf("N-CoSED uncontended %v not below SRSL %v", nco, srsl)
	}
	if dqnl >= srsl {
		t.Fatalf("DQNL uncontended %v not below SRSL %v", dqnl, srsl)
	}
}

func TestUncontendedSharedIsOneAtomic(t *testing.T) {
	env, m, nodes := testManager(1, NCoSED, 3, 1)
	defer env.Shutdown()
	pp := fabric.DefaultParams()
	var d time.Duration
	env.Go("w", func(p *sim.Proc) {
		c := m.Client(nodes[1].ID)
		start := p.Now()
		c.Lock(p, 0, Shared)
		d = time.Duration(p.Now() - start)
		c.Unlock(p, 0, Shared)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if d != pp.IBAtomicLatency {
		t.Fatalf("shared acquire took %v, want one atomic RTT %v", d, pp.IBAtomicLatency)
	}
}

func TestUnderRemoteLoadOneSidedUnaffected(t *testing.T) {
	// Saturate the home node's CPU: SRSL (whose server needs that CPU)
	// must slow dramatically; N-CoSED's one-sided fast path must not.
	lat := func(kind Kind, loaded bool) time.Duration {
		env, m, nodes := testManager(1, kind, 3, 1)
		defer env.Shutdown()
		if loaded {
			nodes[0].SpawnLoad(8, 5*time.Millisecond, 0)
		}
		var d time.Duration
		env.Go("w", func(p *sim.Proc) {
			p.Sleep(20 * time.Millisecond)
			c := m.Client(nodes[1].ID)
			start := p.Now()
			c.Lock(p, 0, Exclusive)
			d = time.Duration(p.Now() - start)
			c.Unlock(p, 0, Exclusive)
		})
		if err := env.RunUntil(sim.Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		return d
	}
	ncoLoaded := lat(NCoSED, true)
	ncoIdle := lat(NCoSED, false)
	srslLoaded := lat(SRSL, true)
	srslIdle := lat(SRSL, false)
	if ncoLoaded > 2*ncoIdle {
		t.Fatalf("N-CoSED degraded under remote load: %v vs %v", ncoLoaded, ncoIdle)
	}
	if srslLoaded < 5*srslIdle {
		t.Fatalf("SRSL should degrade under home load: %v vs %v", srslLoaded, srslIdle)
	}
}

func TestCascadeSharedShape(t *testing.T) {
	// Fig 5a: shared waiters behind an exclusive. N-CoSED grants the
	// cohort in a burst: its cascade must stay far below DQNL's serial
	// chain and below SRSL at 16 waiters.
	get := func(kind Kind) time.Duration {
		r, err := Cascade(kind, Shared, 16, runtime.ServiceOptions{})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		return r.Last
	}
	nco, dqnl, srsl := get(NCoSED), get(DQNL), get(SRSL)
	if dqnl < 3*nco {
		t.Fatalf("shared cascade: DQNL %v vs N-CoSED %v — serialization penalty missing", dqnl, nco)
	}
	if srsl <= nco {
		t.Fatalf("shared cascade: SRSL %v must exceed N-CoSED %v", srsl, nco)
	}
}

func TestCascadeExclusiveShape(t *testing.T) {
	// Fig 5b: exclusive chains serialize for everyone; N-CoSED's direct
	// peer hand-off must be the cheapest, SRSL the most expensive.
	get := func(kind Kind) time.Duration {
		r, err := Cascade(kind, Exclusive, 16, runtime.ServiceOptions{})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		return r.Last
	}
	nco, dqnl, srsl := get(NCoSED), get(DQNL), get(SRSL)
	if !(nco < dqnl && dqnl < srsl) {
		t.Fatalf("exclusive cascade ordering wrong: N-CoSED=%v DQNL=%v SRSL=%v", nco, dqnl, srsl)
	}
}

func TestCascadeGrowsWithWaiters(t *testing.T) {
	for _, kind := range allKinds {
		small, err := Cascade(kind, Exclusive, 2, runtime.ServiceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		large, err := Cascade(kind, Exclusive, 12, runtime.ServiceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if large.Last <= small.Last {
			t.Fatalf("%v: cascade not growing: %v (2) vs %v (12)", kind, small.Last, large.Last)
		}
		if len(large.GrantLat) != 12 || large.GrantLat[0] <= 0 {
			t.Fatalf("%v: grant latencies %v, want 12 positive", kind, large.GrantLat)
		}
	}
}

func TestKindAndModeStrings(t *testing.T) {
	if SRSL.String() != "SRSL" || DQNL.String() != "DQNL" || NCoSED.String() != "N-CoSED" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind name")
	}
	if Shared.String() != "shared" || Exclusive.String() != "exclusive" {
		t.Fatal("mode names wrong")
	}
}

func TestWireRoundTrip(t *testing.T) {
	w := wire{op: opEnqueue, lock: 123456, from: 7, arg: 3}
	b := make([]byte, msgSize)
	w.encodeInto(b)
	got := decodeWire(b)
	if got != w {
		t.Fatalf("round trip %+v -> %+v", w, got)
	}
	if decodeWire(nil) != (wire{}) {
		t.Fatal("short decode not zero")
	}
}

func TestClientPanicsOnBadLock(t *testing.T) {
	env, m, nodes := testManager(1, SRSL, 2, 1)
	defer env.Shutdown()
	env.Go("w", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range lock did not panic")
			}
		}()
		m.Client(nodes[1].ID).Lock(p, 5, Exclusive)
	})
	// The recover happens inside the process; the env run must stay clean.
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.locks != 1 {
		t.Fatal("lock namespace wrong")
	}
}

func TestManagerUnknownClientPanics(t *testing.T) {
	env, m, _ := testManager(1, SRSL, 2, 1)
	defer env.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("unknown client did not panic")
		}
	}()
	m.Client(99)
}

// Property: under any interleaving of exclusive lock/unlock pairs from
// random nodes on random locks, every worker completes (no lost grants)
// and mutual exclusion holds, for all three designs.
func TestPropertyRandomWorkloads(t *testing.T) {
	f := func(seed int64, kindSel uint8, ops []uint8) bool {
		kind := allKinds[int(kindSel)%len(allKinds)]
		if len(ops) > 24 {
			ops = ops[:24]
		}
		env, m, nodes := testManager(seed, kind, 5, 3)
		defer env.Shutdown()
		rng := rand.New(rand.NewSource(seed))
		type hold struct{ excl, shared int }
		holds := map[int]*hold{0: {}, 1: {}, 2: {}}
		type opSpec struct {
			mode  Mode
			delay time.Duration
		}
		// The Client contract allows one outstanding request per
		// (node, lock): group the random ops accordingly and run each
		// group as a sequential chain; groups interleave freely.
		type key struct{ node, lock int }
		groups := map[key][]opSpec{}
		total := 0
		for i, op := range ops {
			k := key{node: 1 + int(op)%4, lock: (int(op) / 4) % 3}
			mode := Exclusive
			if kind != DQNL && op%2 == 0 {
				mode = Shared
			}
			groups[k] = append(groups[k], opSpec{mode: mode, delay: time.Duration(i) * 37 * time.Microsecond})
			total++
		}
		completed, ok := 0, true
		for k, specs := range groups {
			k, specs := k, specs
			node := nodes[k.node]
			env.Go(fmt.Sprintf("chain-%d-%d", k.node, k.lock), func(p *sim.Proc) {
				c := m.Client(node.ID)
				for _, spec := range specs {
					p.SleepUntil(sim.Time(spec.delay))
					c.Lock(p, k.lock, spec.mode)
					h := holds[k.lock]
					if spec.mode == Exclusive {
						if h.excl != 0 || h.shared != 0 {
							ok = false
						}
						h.excl++
					} else {
						if h.excl != 0 {
							ok = false
						}
						h.shared++
					}
					p.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					if spec.mode == Exclusive {
						h.excl--
					} else {
						h.shared--
					}
					c.Unlock(p, k.lock, spec.mode)
					completed++
				}
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		if err := auditIdle(m); err != nil {
			t.Errorf("%v seed %d: %v", kind, seed, err)
			return false
		}
		return ok && completed == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a node can never lock the same lock twice concurrently, but
// sequential re-acquisition always works.
func TestPropertySequentialReacquire(t *testing.T) {
	f := func(kindSel uint8, rounds uint8) bool {
		kind := allKinds[int(kindSel)%len(allKinds)]
		n := int(rounds)%8 + 1
		env, m, nodes := testManager(3, kind, 3, 1)
		defer env.Shutdown()
		done := false
		env.Go("w", func(p *sim.Proc) {
			c := m.Client(nodes[1].ID)
			for i := 0; i < n; i++ {
				c.Lock(p, 0, Exclusive)
				p.Sleep(10 * time.Microsecond)
				c.Unlock(p, 0, Exclusive)
			}
			done = true
		})
		if err := env.Run(); err != nil {
			return false
		}
		return done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCascadeShapeHoldsOnIWARP(t *testing.T) {
	// §6: the designs rely on common RDMA features; rerunning Fig 5a
	// under the 10GigE/iWARP calibration must keep the ordering.
	get := func(kind Kind) time.Duration {
		r, err := Cascade(kind, Shared, 16, runtime.ServiceOptions{Params: fabric.IWARPParams()})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		return r.Last
	}
	nco, dqnl, srsl := get(NCoSED), get(DQNL), get(SRSL)
	if !(nco < srsl && srsl < dqnl) && !(nco < dqnl && nco < srsl) {
		t.Fatalf("iWARP shared cascade ordering broke: N-CoSED=%v DQNL=%v SRSL=%v", nco, dqnl, srsl)
	}
	if dqnl < 3*nco {
		t.Fatalf("iWARP: DQNL %v vs N-CoSED %v — serialization penalty missing", dqnl, nco)
	}
}

func TestNoStarvationUnderContention(t *testing.T) {
	// Every contender must make progress under sustained contention, for
	// all three designs.
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			env, m, nodes := testManager(1, kind, 5, 1)
			defer env.Shutdown()
			acquired := make([]int, 5)
			stop := false
			for i := 1; i < 5; i++ {
				i := i
				node := nodes[i]
				env.GoDaemon(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
					c := m.Client(node.ID)
					for !stop {
						c.Lock(p, 0, Exclusive)
						acquired[i]++
						p.Sleep(30 * time.Microsecond)
						c.Unlock(p, 0, Exclusive)
						p.Sleep(10 * time.Microsecond)
					}
				})
			}
			if err := env.RunUntil(sim.Time(50 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			total, min := 0, int(^uint(0)>>1)
			for i := 1; i < 5; i++ {
				total += acquired[i]
				if acquired[i] < min {
					min = acquired[i]
				}
			}
			if total == 0 {
				t.Fatal("no acquisitions at all")
			}
			if min == 0 {
				t.Fatalf("%v: a contender starved: %v", kind, acquired[1:])
			}
			// Rough fairness: nobody below a third of the fair share.
			if fair := total / 4; min < fair/3 {
				t.Fatalf("%v: unfair distribution %v (min %d, fair %d)", kind, acquired[1:], min, fair)
			}
			// Let every worker finish its round, then audit the quiescent
			// manager.
			stop = true
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if err := auditIdle(m); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestTryLockSemantics(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			env, m, nodes := testManager(1, kind, 4, 1)
			defer env.Shutdown()
			env.Go("driver", func(p *sim.Proc) {
				a := m.Client(nodes[1].ID)
				b := m.Client(nodes[2].ID)
				if !tryLock(t, p, a, 0, Exclusive) {
					t.Error("trylock on free lock failed")
				}
				if tryLock(t, p, b, 0, Exclusive) {
					t.Error("trylock on held lock succeeded")
				}
				if kind != DQNL && tryLock(t, p, b, 0, Shared) {
					t.Error("shared trylock under exclusive succeeded")
				}
				a.Unlock(p, 0, Exclusive)
				// A failed TryLock must leave no queue state: the next
				// blocking acquire must work normally.
				b.Lock(p, 0, Exclusive)
				b.Unlock(p, 0, Exclusive)
				if !tryLock(t, p, b, 0, Exclusive) {
					t.Error("trylock after release failed")
				}
				b.Unlock(p, 0, Exclusive)
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTryLockSharedCoexists(t *testing.T) {
	for _, kind := range []Kind{SRSL, NCoSED} {
		env, m, nodes := testManager(1, kind, 4, 1)
		defer env.Shutdown()
		env.Go("driver", func(p *sim.Proc) {
			a := m.Client(nodes[1].ID)
			b := m.Client(nodes[2].ID)
			if !tryLock(t, p, a, 0, Shared) || !tryLock(t, p, b, 0, Shared) {
				t.Errorf("%v: shared trylocks did not coexist", kind)
			}
			c := m.Client(nodes[3].ID)
			if tryLock(t, p, c, 0, Exclusive) {
				t.Errorf("%v: exclusive trylock under shared holders succeeded", kind)
			}
			a.Unlock(p, 0, Shared)
			b.Unlock(p, 0, Shared)
			if !tryLock(t, p, c, 0, Exclusive) {
				t.Errorf("%v: exclusive trylock after shared drain failed", kind)
			}
			c.Unlock(p, 0, Exclusive)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNCoSEDSteadyStateAllocationFree asserts the N-CoSED hot loops —
// uncontended shared/exclusive fast paths (pure FAA/CAS) and contended
// exclusive hand-offs (pooled wire messages, reused grant and successor
// futures) — allocate nothing per lock/unlock once warm.
func TestNCoSEDSteadyStateAllocationFree(t *testing.T) {
	env, m, _ := testManager(1, NCoSED, 2, 4)
	c1 := m.Client(1)
	// Uncontended fast paths on lock 0 (homed on node 0, remote to c1).
	env.GoDaemon("fast", func(p *sim.Proc) {
		for {
			c1.Lock(p, 0, Exclusive)
			c1.Unlock(p, 0, Exclusive)
			c1.Lock(p, 0, Shared)
			c1.Unlock(p, 0, Shared)
			p.Sleep(5 * time.Microsecond)
		}
	})
	// Contended exclusive ping-pong on lock 1: exercises the enqueue /
	// grant / successor-wait paths through the pooled tables.
	for n := 0; n < 2; n++ {
		cl := m.Client(n)
		env.GoDaemon(fmt.Sprintf("pingpong%d", n), func(p *sim.Proc) {
			for {
				cl.Lock(p, 1, Exclusive)
				p.Sleep(2 * time.Microsecond)
				cl.Unlock(p, 1, Exclusive)
				p.Sleep(2 * time.Microsecond)
			}
		})
	}
	limit := sim.Time(0)
	step := func() {
		limit = limit.Add(time.Millisecond)
		if err := env.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm pools, grant/successor tables, waiter free lists
	allocs := testing.AllocsPerRun(20, step)
	if allocs > 2 {
		t.Errorf("steady-state N-CoSED lock/unlock allocates %.1f allocs per 1ms step, want ~0", allocs)
	}
	env.Shutdown()
}

// TestDQNLSteadyStateAllocationFree asserts that a contended DQNL
// hand-off — a waiter polling its grant word, a holder's Unlock polling
// for its successor's announcement, then unlock and lock again —
// allocates nothing once every (client, lock) record has bound its poll.
func TestDQNLSteadyStateAllocationFree(t *testing.T) {
	env, m, _ := testManager(1, DQNL, 3, 1)
	ops := 0
	for n := 1; n <= 2; n++ {
		cl := m.Client(n)
		env.GoDaemon(fmt.Sprintf("pingpong%d", n), func(p *sim.Proc) {
			for {
				if err := cl.Lock(p, 0, Exclusive); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(2 * time.Microsecond)
				if err := cl.Unlock(p, 0, Exclusive); err != nil {
					t.Error(err)
					return
				}
				ops++
				p.Sleep(time.Microsecond)
			}
		})
	}
	limit := sim.Time(0)
	step := func() {
		limit = limit.Add(time.Millisecond)
		if err := env.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	step() // bind both records' polls
	ops0, polls0 := ops, env.Stats().Resumes
	allocs := testing.AllocsPerRun(20, step)
	if ops == ops0 || env.Stats().Resumes == polls0 {
		t.Fatalf("no contended hand-off ran: %d lock/unlock pairs, %d resumes", ops-ops0, env.Stats().Resumes-polls0)
	}
	if allocs != 0 {
		t.Errorf("steady-state DQNL lock/unlock allocates %.1f allocs per 1ms step (%d pairs), want 0", allocs, (ops-ops0)/21)
	}
	env.Shutdown()
}
