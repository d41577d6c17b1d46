package coopcache

import (
	"strings"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

const churnDocs = 256

// churnTier builds a 4-node tier at 10% capacity over a 256-document
// working set and drives it from node 0 with a cyclic scan — every
// request a miss that overflows a slab, so each iteration runs the full
// evict→invalidate→install→publish loop. step advances the environment
// by one virtual millisecond (hundreds of ops).
func churnTier(t *testing.T, spill bool) (tier *Tier, step func()) {
	t.Helper()
	env := sim.NewEnv(1)
	t.Cleanup(env.Shutdown)
	nw := verbs.NewNetworkWith(env, fabric.DefaultParams(), verbs.TransportConfig{})
	nodes := make([]*cluster.Node, 6)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 4, 1<<24)
	}
	tier = NewTier(nw, nodes[1:5], TierOptions{Docs: churnDocs, CacheFrac: 0.1, Spill: spill})
	dev := nw.Attach(nodes[0])
	env.GoDaemon("churn", func(p *sim.Proc) {
		var scr TierScratch
		buf := make([]byte, TierDocBytes)
		for doc := 0; ; doc = (doc + 1) % churnDocs {
			served, err := tier.Get(p, dev, doc, buf, &scr)
			if err == nil && !served {
				err = tier.Install(p, dev, doc, buf, &scr)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	limit := sim.Time(0)
	return tier, func() {
		limit = limit.Add(time.Millisecond)
		if err := env.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTierChurnSteadyStateAllocationFree checks the churn loop's steady
// state allocates nothing per operation (the scratch buffers, the LRU
// free list and the slot free stacks absorb all churn).
func TestTierChurnSteadyStateAllocationFree(t *testing.T) {
	tier, step := churnTier(t, false)
	step() // prime the LRU free lists and verbs pools
	before := tier.Stats().Evictions
	allocs := testing.AllocsPerRun(20, step)
	if allocs > 2 {
		t.Errorf("churn steady state allocates %.1f/step (hundreds of ops each), want ~0", allocs)
	}
	if tier.Stats().Evictions == before {
		t.Fatal("harness drove no eviction churn")
	}
	if err := tier.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestTierSpillChurnSteadyStateAllocationFree re-runs the steady-state
// allocation gate with the demotion workers armed: the spill rings, the
// region free stacks and the gen-stamped FIFO absorb all victim-tier
// churn without allocating.
func TestTierSpillChurnSteadyStateAllocationFree(t *testing.T) {
	tier, step := churnTier(t, true)
	step() // prime the LRU free lists, spill rings and verbs pools
	before := tier.Stats().Spills
	allocs := testing.AllocsPerRun(20, step)
	if allocs > 2 {
		t.Errorf("spill steady state allocates %.1f/step (hundreds of ops each), want ~0", allocs)
	}
	st := tier.Stats()
	if st.Spills == before {
		t.Fatal("harness drove no demotions")
	}
	if st.SpillReclaims == 0 {
		t.Fatal("regions never filled — reclaim path unexercised")
	}
	if err := tier.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestTierAuditCatchesCorruption breaks each invariant by hand on a
// churned, coherent tier and checks Audit names it.
func TestTierAuditCatchesCorruption(t *testing.T) {
	// resident returns a document placed in a main slot (spilled=false)
	// or a spill slot.
	resident := func(tier *Tier, spilled bool) (doc int32) {
		for d, n := range tier.docNode {
			if n >= 0 && (tier.docSlot[d] >= tier.mainSlots[n]) == spilled {
				return int32(d)
			}
		}
		t.Fatal("churn left no such resident")
		return -1
	}
	cases := []struct {
		name    string
		corrupt func(tier *Tier)
		want    string
	}{
		{"daemon failure", func(tier *Tier) {
			tier.fail(&verbs.OpError{Op: "write", Reason: "bad key"})
		}, "bad key"},
		{"slot claimed by two docs", func(tier *Tier) {
			d := resident(tier, false)
			var other int32
			for other = 0; tier.docNode[other] >= 0; other++ {
			}
			tier.docNode[other], tier.docSlot[other] = tier.docNode[d], tier.docSlot[d]
		}, "holds another document"},
		{"slot holds another doc", func(tier *Tier) {
			d := resident(tier, false)
			tier.slotDoc[tier.docNode[d]][tier.docSlot[d]] = resident(tier, true)
		}, "metadata names"},
		{"LRU disagrees with slots", func(tier *Tier) {
			d := resident(tier, false)
			tier.lrus[tier.docNode[d]].Remove(d)
		}, "LRU holds"},
		{"spill claim without resident", func(tier *Tier) {
			d := resident(tier, true)
			n, s := tier.docNode[d], tier.docSlot[d]
			tier.slotDoc[n][s] = -1
			tier.docNode[d], tier.docSlot[d] = -1, -1
		}, "live spill claims"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tier, step := churnTier(t, true)
			step()
			if err := tier.Audit(); err != nil {
				t.Fatalf("coherent tier failed its audit: %v", err)
			}
			tc.corrupt(tier)
			if err := tier.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit returned %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestDirectoryInterleavedLayout pins the addressing NewDirectory
// promises: one bucket per shard is word doc/shards on shard doc%shards.
func TestDirectoryInterleavedLayout(t *testing.T) {
	_, dir, _, _ := dirEnv(t, 11) // 2 shards, odd working set
	for doc := 0; doc < 11; doc++ {
		if h, off := dir.locate(doc); h != doc%2 || off != doc/2*8 {
			t.Fatalf("doc %d at (shard %d, offset %d), want (%d, %d)", doc, h, off, doc%2, doc/2*8)
		}
		if dir.HomeShard(doc) != doc%2 {
			t.Fatalf("doc %d homed on shard %d", doc, dir.HomeShard(doc))
		}
	}
	if len(dir.bufs[0]) != 6*8 {
		t.Fatalf("shard region is %d bytes, want ceil(11/2) words", len(dir.bufs[0]))
	}
}
