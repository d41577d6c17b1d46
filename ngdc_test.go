// Tests of the public API surface: what package ngdc re-exports must
// work together. A layer the facade does not re-export is called from its
// package, as examples/ does.
package ngdc_test

import (
	"testing"
	"time"

	"ngdc"
	"ngdc/internal/ddss"
	"ngdc/internal/gma"
	"ngdc/internal/storm"
)

func TestPublicFrameworkEndToEnd(t *testing.T) {
	f := ngdc.New(ngdc.DefaultConfig())
	defer f.Shutdown()

	st := f.Monitor(ngdc.RDMASync, 0, []int{1}, 10*time.Millisecond)
	st.Start()
	c1, c2 := f.Dial(ngdc.PSDP, 1, 2)

	f.GoDaemon("echo", func(p *ngdc.Proc) {
		for {
			m, err := c2.Recv(p)
			if err != nil {
				return
			}
			if err := c2.Send(p, m); err != nil {
				return
			}
		}
	})
	ok := false
	f.Go("app", func(p *ngdc.Proc) {
		sh := f.Sharing.Client(1)
		h, err := sh.Allocate(p, "kv", 64, ngdc.VersionCoherence, ddss.NodeAuto)
		if err != nil {
			t.Error(err)
			return
		}
		lk := f.Locks.Client(1)
		lk.Lock(p, 3, ngdc.SharedLock)
		if _, err := h.Put(p, []byte("value")); err != nil {
			t.Error(err)
		}
		lk.Unlock(p, 3, ngdc.SharedLock)

		if err := c1.Send(p, []byte("ping")); err != nil {
			t.Error(err)
		}
		if _, err := c1.Recv(p); err != nil {
			t.Error(err)
		}
		if st.Sample(p, 0).Connections == 0 {
			t.Error("monitor saw no connections")
		}
		ok = true
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("app did not complete")
	}
}

func TestPublicExperimentEntryPoints(t *testing.T) {
	// Every experiment entry point the facade exports must run from it.
	if _, err := ngdc.LockCascade(ngdc.NCoSED, ngdc.SharedLock, 4, 1); err != nil {
		t.Fatal(err)
	}
	cc := ngdc.DefaultCacheConfig(ngdc.HYBCC, 2, 16<<10)
	cc.Measure = 300 * time.Millisecond
	cc.Warmup = 100 * time.Millisecond
	if _, err := ngdc.RunCache(cc); err != nil {
		t.Fatal(err)
	}
	ac := ngdc.DefaultAccuracyConfig(ngdc.RDMAAsync)
	ac.Duration = 300 * time.Millisecond
	if _, err := ngdc.MonitorAccuracy(ac); err != nil {
		t.Fatal(err)
	}
	lb := ngdc.DefaultLBConfig(ngdc.ERDMASync, 0.9)
	lb.Measure = 300 * time.Millisecond
	if _, err := ngdc.RunLoadBalancer(lb); err != nil {
		t.Fatal(err)
	}
}

// TestPublicStormAndPool builds STORM and the memory pool from their
// packages, as examples/memorypool does, on a facade framework, and
// backs a facade file cache with the pool.
func TestPublicStormAndPool(t *testing.T) {
	f := ngdc.New(ngdc.Config{Nodes: 5, Seed: 1})
	defer f.Shutdown()
	st := storm.New(f.Network, []*ngdc.Node{f.Node(1), f.Node(2)},
		storm.Options{Transport: storm.OverDDSS, Client: f.Node(0)})
	var res storm.Result
	f.Go("driver", func(p *ngdc.Proc) {
		if err := st.Load(p, 600); err != nil {
			t.Error(err)
			return
		}
		var err error
		res, err = st.Query(p, storm.Selector{Modulo: 2})
		if err != nil {
			t.Error(err)
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Records != 300 {
		t.Fatalf("query returned %d records", res.Records)
	}

	pool, err := gma.New(f.Network, []*ngdc.Node{f.Node(3), f.Node(4)},
		gma.Options{ArenaPerNode: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if pool.TotalFree() != 2<<20 {
		t.Fatalf("pool free %d", pool.TotalFree())
	}
	fc := ngdc.NewFileCache(ngdc.DefaultFileCacheConfig(ngdc.FileCacheRemoteMemory), f.Network, f.Node(3), pool)
	f.Go("reader", func(p *ngdc.Proc) {
		if _, err := fc.Read(p, 1, 2); err != nil {
			t.Error(err)
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if fc.Stats.Reads != 1 {
		t.Fatal("file cache read not recorded")
	}
}

func TestPublicConstantsDistinct(t *testing.T) {
	// Exported enum aliases must keep distinct values within each family.
	socketSchemes := []ngdc.SocketScheme{ngdc.TCP, ngdc.BSDP, ngdc.ZSDP, ngdc.AZSDP, ngdc.PSDP}
	seen := map[ngdc.SocketScheme]bool{}
	for _, s := range socketSchemes {
		if seen[s] {
			t.Fatalf("duplicate socket scheme value %v", s)
		}
		seen[s] = true
	}
	cohs := []ngdc.Coherence{
		ngdc.NullCoherence, ngdc.WriteCoherence, ngdc.ReadCoherence,
		ngdc.StrictCoherence, ngdc.VersionCoherence, ngdc.DeltaCoherence, ngdc.TemporalCoherence,
	}
	seenC := map[ngdc.Coherence]bool{}
	for _, c := range cohs {
		if seenC[c] {
			t.Fatalf("duplicate coherence value %v", c)
		}
		seenC[c] = true
	}
}
