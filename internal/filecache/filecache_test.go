package filecache

import (
	"math/rand"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/gma"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// rig builds a cache on node 0 with a 3-node memory pool behind it.
func rig(t testing.TB, mode Mode) (*sim.Env, *Cache) {
	t.Helper()
	env := sim.NewEnv(1)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	var nodes []*cluster.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cluster.NewNode(env, i, 2, 64<<20))
	}
	var agg *gma.Aggregator
	if mode == RemoteMemory {
		var err error
		agg, err = gma.New(nw, nodes, gma.Options{ArenaPerNode: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
	}
	return env, New(DefaultConfig(mode), nw, nodes[0], agg)
}

func TestLocalHitAfterRead(t *testing.T) {
	env, c := rig(t, DiskOnly)
	defer env.Shutdown()
	env.Go("p", func(p *sim.Proc) {
		src, err := c.Read(p, 1, 0)
		if err != nil || src != FromDisk {
			t.Errorf("first read: %v %v", src, err)
		}
		src, err = c.Read(p, 1, 0)
		if err != nil || src != FromLocal {
			t.Errorf("second read: %v %v", src, err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Stats.LocalHits != 1 || c.Stats.DiskReads != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestEvictionDemotesToRemote(t *testing.T) {
	env, c := rig(t, RemoteMemory)
	defer env.Shutdown()
	env.Go("p", func(p *sim.Proc) {
		// Fill past local capacity.
		for i := 0; i <= localPages; i++ {
			if _, err := c.Read(p, 0, i); err != nil {
				t.Fatal(err)
			}
		}
		if c.RemotePages() == 0 {
			t.Fatal("no page demoted to remote memory")
		}
		// Page 0 was the LRU victim: re-reading it must be a remote hit,
		// far cheaper than disk.
		t0 := p.Now()
		src, err := c.Read(p, 0, 0)
		if err != nil || src != FromRemote {
			t.Fatalf("victim read: %v %v", src, err)
		}
		lat := time.Duration(p.Now() - t0)
		if lat > 100*time.Microsecond {
			t.Fatalf("remote hit took %v; should be tens of µs", lat)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskOnlyMissesAreMilliseconds(t *testing.T) {
	env, c := rig(t, DiskOnly)
	defer env.Shutdown()
	env.Go("p", func(p *sim.Proc) {
		t0 := p.Now()
		if _, err := c.Read(p, 9, 9); err != nil {
			t.Fatal(err)
		}
		if time.Duration(p.Now()-t0) < 2*time.Millisecond {
			t.Fatal("disk read suspiciously fast")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWarmRestartSurvivesFlush(t *testing.T) {
	// The §6 property: after losing the local cache, the working set is
	// still warm in remote memory.
	env, c := rig(t, RemoteMemory)
	defer env.Shutdown()
	env.Go("p", func(p *sim.Proc) {
		// Touch a working set twice its local capacity so half is
		// demoted.
		n := 2 * localPages
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				if _, err := c.Read(p, 0, i); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.FlushLocal(p); err != nil {
			t.Fatal(err)
		}
		if c.LocalPages() != 0 {
			t.Fatal("flush left local pages")
		}
		remote, disk := 0, 0
		for i := 0; i < n; i++ {
			src, err := c.Read(p, 0, i)
			if err != nil {
				t.Fatal(err)
			}
			switch src {
			case FromRemote:
				remote++
			case FromDisk:
				disk++
			}
		}
		if remote == 0 {
			t.Fatal("nothing survived the flush in remote memory")
		}
		if remote < disk {
			t.Fatalf("restart mostly cold: %d remote vs %d disk", remote, disk)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVictimCapacityBounded(t *testing.T) {
	env, c := rig(t, RemoteMemory)
	defer env.Shutdown()
	env.Go("p", func(p *sim.Proc) {
		// Stream far more pages than local+victim capacity.
		for i := 0; i < 3*(localPages+c.cfg.VictimPages); i++ {
			if _, err := c.Read(p, 0, i); err != nil {
				t.Fatal(err)
			}
		}
		if c.RemotePages() > c.cfg.VictimPages {
			t.Fatalf("victim tier holds %d pages, cap %d", c.RemotePages(), c.cfg.VictimPages)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteMemoryBeatsDiskOnly(t *testing.T) {
	run := func(mode Mode) float64 {
		env, c := rig(t, mode)
		defer env.Shutdown()
		env.Go("p", func(p *sim.Proc) {
			// Working set of 2x local capacity, five passes: the reuse
			// misses hit remote memory instead of disk.
			n := 2 * localPages
			for round := 0; round < 5; round++ {
				for i := 0; i < n; i++ {
					if _, err := c.Read(p, 0, i); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Stats.MeanLatencyUs()
	}
	disk := run(DiskOnly)
	remote := run(RemoteMemory)
	if remote >= disk/3 {
		t.Fatalf("remote-memory mean %.1fµs vs disk-only %.1fµs: insufficient benefit", remote, disk)
	}
}

func TestStrings(t *testing.T) {
	if DiskOnly.String() != "disk-only" || RemoteMemory.String() != "remote-memory" {
		t.Fatal("mode names wrong")
	}
	if FromLocal.String() != "local" || FromRemote.String() != "remote" || FromDisk.String() != "disk" {
		t.Fatal("source names wrong")
	}
}

// Regression: a page demoted, promoted back, and re-victimized must not
// be freed from the victim tier at its ORIGINAL fifo position. The old
// eviction order kept the stale entry live, so the next victim-tier
// eviction tore the just-re-parked page's buffer out from under the
// remote map; generations tombstone the stale position and re-queue the
// page at the back.
func TestPromoteThenEvictKeepsVictimFresh(t *testing.T) {
	env := sim.NewEnv(1)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	var nodes []*cluster.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cluster.NewNode(env, i, 2, 64<<20))
	}
	agg, err := gma.New(nw, nodes, gma.Options{ArenaPerNode: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: RemoteMemory, VictimPages: 3}
	c := New(cfg, nw, nodes[0], agg)
	defer env.Shutdown()

	read := func(p *sim.Proc, page int) Source {
		src, err := c.Read(p, 0, page)
		if err != nil {
			t.Fatalf("read page %d: %v", page, err)
		}
		return src
	}
	// All but two local slots hold fillers, re-read before every step so
	// the LRU victims are always among the pages a..f: the scenario runs
	// on two local slots.
	const fillers = localPages - 2
	step := func(p *sim.Proc, page int) Source {
		for i := 0; i < fillers; i++ {
			if src := read(p, 100+i); src != FromLocal {
				t.Fatalf("filler %d read from %v, want local", i, src)
			}
		}
		return read(p, page)
	}
	env.Go("p", func(p *sim.Proc) {
		const a, b, cc, d, e, f = 0, 1, 2, 3, 4, 5
		for i := 0; i < fillers; i++ {
			read(p, 100+i)
		}
		read(p, a)  // local {a}
		read(p, b)  // local {a,b}
		step(p, cc) // a demoted: remote {a}
		if src := step(p, a); src != FromRemote {
			t.Fatalf("promote read source = %v, want remote", src)
		}
		// promote evicted b: remote {a(copy), b}; local {c... ,a}
		step(p, d) // evicts c -> remote {a,b,c}; victim tier now full
		step(p, e) // evicts a -> re-victimize: refreshed position, not a new buffer
		if c.RemotePages() > cfg.VictimPages {
			t.Fatalf("victim tier over capacity: %d > %d", c.RemotePages(), cfg.VictimPages)
		}
		step(p, f) // evicts d -> demote d must evict the oldest LIVE page (b), never a
		if c.RemotePages() > cfg.VictimPages {
			t.Fatalf("victim tier over capacity: %d > %d", c.RemotePages(), cfg.VictimPages)
		}
		// a was re-parked most recently: it must still be served remotely.
		if src := step(p, a); src != FromRemote {
			t.Fatalf("re-victimized page was evicted at its stale fifo position (read source = %v)", src)
		}
		// b was the oldest live victim: it is the one that went to disk.
		if src := step(p, b); src != FromDisk {
			t.Fatalf("oldest live victim should have been evicted, got %v", src)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Regression: the eviction order used to grow by one entry on every
// remote hit and every re-demotion and was drained only while the victim
// tier was at capacity, so a working set that fits the tier leaked an
// entry per access (200 passes over 100 pages: 39 836 entries for 100
// parked pages). The ring re-stamps in place and compacts, so it stays
// within twice the tier size however long the cache runs.
func TestVictimOrderStaysBounded(t *testing.T) {
	env, c := rig(t, RemoteMemory)
	defer env.Shutdown()
	const pages, passes = 100, 200 // > localPages, < localPages+VictimPages
	env.Go("p", func(p *sim.Proc) {
		for pass := 0; pass < passes; pass++ {
			for i := 0; i < pages; i++ {
				if _, err := c.Read(p, 0, i); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.order.Audit(); err != nil {
				t.Fatalf("pass %d, %d parked pages: %v", pass, c.RemotePages(), err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if c.RemotePages() != pages || c.order.Live() != pages {
		t.Fatalf("parked %d pages under %d live claims, want %d of each", c.RemotePages(), c.order.Live(), pages)
	}
	if c.Stats.RemoteHits == 0 {
		t.Fatal("workload never hit the victim tier")
	}
}

// Regression: demotions and remote hits of several processes overlap on a
// tier far smaller than the traffic. A slot whose page is still being
// written (or read) is in the eviction order but must not be reclaimed:
// it used to be handed to a second demoter, which dereferenced the nil
// page parked under it. The tier must hold its cap at every instant, no
// read may find its page's buffer freed under it, and once every process
// is done each parked page owns exactly one slot and one buffer.
func TestOverlappingDemotionsShareATinyTier(t *testing.T) {
	env := sim.NewEnv(1)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	var nodes []*cluster.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cluster.NewNode(env, i, 2, 64<<20))
	}
	agg, err := gma.New(nw, nodes, gma.Options{ArenaPerNode: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pool := agg.TotalFree()
	cfg := Config{Mode: RemoteMemory, VictimPages: 2}
	c := New(cfg, nw, nodes[0], agg)
	defer env.Shutdown()

	const procs, reads, pages = 8, 200, localPages + 16
	for w := 0; w < procs; w++ {
		env.Go("reader", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < reads; i++ {
				// Every process draws from the same shared pages —
				// fourteen more than both tiers hold — so one key is
				// demoted, hit remotely and re-demoted by several
				// processes at once.
				file, page := 0, rng.Intn(pages)
				if _, err := c.Read(p, file, page); err != nil {
					t.Errorf("proc %d read %d: %v", w, i, err)
					return
				}
				if c.RemotePages() > cfg.VictimPages {
					t.Errorf("victim tier holds %d pages, cap %d", c.RemotePages(), cfg.VictimPages)
					return
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Stats.RemoteHits == 0 {
		t.Fatal("workload never hit the victim tier")
	}
	if c.RemotePages() != c.order.Live() {
		t.Fatalf("%d parked pages under %d live claims", c.RemotePages(), c.order.Live())
	}
	if held, want := pool-agg.TotalFree(), int64(c.RemotePages()*pageSize); held != want {
		t.Fatalf("pool holds %d bytes for %d parked pages, want %d", held, c.RemotePages(), want)
	}
}

// Regression: a page stays parked for the whole of a one-sided read of
// it. One process reads the only parked page while another's demotion
// arrives mid-read on the full one-slot tier; moving the page to the back
// of the eviction order is no protection there, so the demotion used to
// free the buffer under the read. The page being read must hold its slot
// and the demoted page is the one dropped.
func TestRemoteReadHoldsItsPage(t *testing.T) {
	env := sim.NewEnv(1)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	var nodes []*cluster.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cluster.NewNode(env, i, 2, 64<<20))
	}
	agg, err := gma.New(nw, nodes, gma.Options{ArenaPerNode: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: RemoteMemory, VictimPages: 1}
	c := New(cfg, nw, nodes[0], agg)
	defer env.Shutdown()

	const x, a, b, w = 0, 1, 2, 3
	disk := fabric.DefaultParams().BackendTime(pageSize)
	start := sim.Time(2 * localPages * disk)
	read := func(p *sim.Proc, page int, want Source) {
		if src, err := c.Read(p, 0, page); err != nil || src != want {
			t.Errorf("read page %d: %v %v, want %v", page, src, err, want)
		}
	}
	env.Go("setup", func(p *sim.Proc) {
		read(p, x, FromDisk)
		read(p, a, FromDisk)
		for i := 0; i < localPages-2; i++ {
			read(p, 100+i, FromDisk) // fills the local tier behind x and a
		}
		read(p, b, FromDisk) // x demoted: local {a, fillers, b}, remote {x}
		if p.Now() >= start {
			t.Errorf("setup ends at %v, after the race starts at %v", p.Now(), start)
		}
	})
	env.Go("demoter", func(p *sim.Proc) {
		p.SleepUntil(start)
		read(p, w, FromDisk) // back from disk at start+disk: evicts a
	})
	env.Go("reader", func(p *sim.Proc) {
		p.SleepUntil(start + sim.Time(disk-time.Microsecond))
		read(p, x, FromRemote) // in flight when the demotion arrives
	})
	env.Go("observer", func(p *sim.Proc) {
		p.SleepUntil(start + sim.Time(disk) + 1)
		if c.remote[pageKey{page: x}] == nil {
			t.Error("page evicted from the victim tier under a one-sided read of it")
		}
		if _, parked := c.remote[pageKey{page: a}]; parked {
			t.Error("the demotion took the slot of the page being read")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
