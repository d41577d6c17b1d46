package coopcache

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
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
		w := newWaiter()
		buf := make([]byte, TierDocBytes)
		for doc := 0; ; doc = (doc + 1) % churnDocs {
			served, err := w.get(p, tier, dev, 0, doc, buf)
			if err == nil && !served {
				err = w.install(p, tier, dev, doc, buf)
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

// waiter runs the tier's chains for a test process: each call starts a
// chain on its scratch and parks p once, until the chain calls done. The
// callbacks are bound once, so a loop of calls allocates nothing.
type waiter struct {
	scr    TierScratch
	await  sim.Await
	served bool
	err    error
	getFn  func(served bool, err error)
	insFn  func(err error)
}

func newWaiter() *waiter {
	w := &waiter{}
	w.getFn = func(served bool, err error) {
		w.served, w.err = served, err
		w.await.Done()
	}
	w.insFn = func(err error) {
		w.err = err
		w.await.Done()
	}
	return w
}

// get is GetAsync with p parked once: it returns what the chain passes
// to done, at that instant.
func (w *waiter) get(p *sim.Proc, tier *Tier, dev *verbs.Device, cpu time.Duration, doc int, buf []byte) (bool, error) {
	tier.GetAsync(dev, cpu, doc, buf, &w.scr, w.getFn)
	w.await.Wait(p, "tier get")
	return w.served, w.err
}

// install is InstallAsync with p parked once.
func (w *waiter) install(p *sim.Proc, tier *Tier, dev *verbs.Device, doc int, buf []byte) error {
	tier.InstallAsync(dev, doc, buf, &w.scr, w.insFn)
	w.await.Wait(p, "tier install")
	return w.err
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
// allocation gate with the demotion chains armed: the spill rings, the
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
			tier.main[tier.docNode[d]].Release(tier.docSlot[d])
		}, "LRU holds"},
		{"ring slot freed twice", func(tier *Tier) {
			d := resident(tier, true)
			n := tier.docNode[d]
			tier.spill[n].Release(tier.docSlot[d] - tier.mainSlots[n])
			tier.spill[n].Release(tier.docSlot[d] - tier.mainSlots[n])
		}, "spill region: lru: ring audit"},
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

// getCell is the own-env harness of the Get tests: front-ends on nodes
// 0-7, three cache nodes (8-10, one rack) holding one main slot each, so
// any second install on a node turns its slot over.
type getCell struct {
	env  *sim.Env
	tier *Tier
	fes  []*verbs.Device
}

const (
	getCellFEs  = 8
	getCellDocs = 64
	// getCPU is the admission burst every harness request pays.
	getCPU = 3 * time.Microsecond
)

func newGetCell(t *testing.T, opts TierOptions, plan *faults.Plan) *getCell {
	t.Helper()
	env := sim.NewEnv(1)
	t.Cleanup(env.Shutdown)
	faults.Install(env, plan)
	nw := verbs.NewNetworkWith(env, fabric.DefaultParams(), verbs.TransportConfig{})
	nodes := make([]*cluster.Node, getCellFEs+3)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 4, 1<<24)
	}
	opts.Docs, opts.CacheFrac = getCellDocs, 0.01
	c := &getCell{env: env, tier: NewTier(nw, nodes[getCellFEs:], opts), fes: make([]*verbs.Device, getCellFEs)}
	for i := range c.fes {
		c.fes[i] = nw.Attach(nodes[i])
	}
	return c
}

// get is one front-end request's cache lookup: the admission burst, then
// the directory and slab reads.
func (c *getCell) get(p *sim.Proc, fe, doc int, buf []byte, w *waiter) (bool, error) {
	return w.get(p, c.tier, c.fes[fe], getCPU, doc, buf)
}

// request is get followed, on a miss, by the install, run as one chain —
// the shape of an E18 driver's request — that p waits on once.
func (c *getCell) request(p *sim.Proc, fe, doc int, buf []byte, scr *TierScratch) error {
	var a sim.Await
	var err error
	dev := c.fes[fe]
	c.tier.GetAsync(dev, getCPU, doc, buf, scr, func(served bool, gerr error) {
		if gerr != nil || served {
			err = gerr
			a.Done()
			return
		}
		c.tier.InstallAsync(dev, doc, buf, scr, func(ierr error) {
			err = ierr
			a.Done()
		})
	})
	a.Wait(p, "request")
	return err
}

// word returns doc's primary directory word, read from the backing
// memory at no simulated cost.
func (c *getCell) word(doc int) Entry {
	var e Entry
	c.tier.dir.DebugPlacements(func(d int, w Entry, replica bool) {
		if d == doc && !replica {
			e = w
		}
	})
	return e
}

// TestTierHitCostsOneResume is the hand-off budget of a request: a
// blocking caller parks once per request, whatever the request does, and
// the demotions it causes park nobody. With one driver and nothing
// contended, a served Get costs one resume and seven events — the
// admission burst, three for the directory read, three for the slab read
// — from a main slot and from a spill slot alike; a regression to a park
// per step reads 2 resumes per hit here (3 in a cell, where the admission
// burst's wake is not the next event). A miss installing into a free slot
// is 1 resume and 8 events (the Get's 4, then the slab write and the
// publish CAS at 2 each; 3 resumes with a park per op). A miss that
// evicts with spill on is 1 resume for its caller and 0 for the
// demotion, whose events run while the caller sleeps (a demotion worker
// process used to pay its own).
func TestTierHitCostsOneResume(t *testing.T) {
	const hits = 100
	c := newGetCell(t, TierOptions{Spill: true}, nil)
	tier := c.tier
	finished := false
	c.env.Go("driver", func(p *sim.Proc) {
		w := newWaiter()
		buf := make([]byte, TierDocBytes)
		cost := func(what string, resumes, events uint64, fn func()) {
			before := c.env.Stats()
			fn()
			after := c.env.Stats()
			if r, e := after.Resumes-before.Resumes, after.EventsProcessed-before.EventsProcessed; r != resumes || e != events {
				t.Errorf("%s cost %d resumes and %d events, want %d and %d", what, r, e, resumes, events)
			}
		}
		serve := func() {
			for i := 0; i < hits; i++ {
				if served, err := c.get(p, 0, docHot, buf, w); !served || err != nil {
					t.Errorf("hit %d: served=%v err=%v", i, served, err)
				}
			}
		}
		cost("a miss installing into a free slot", 1, 8, func() {
			if err := c.request(p, 0, docHot, buf, &w.scr); err != nil {
				t.Error(err)
			}
		})
		cost("main-slot hits", hits, 7*hits, serve)
		if st := tier.Stats(); st.SpillHits != 0 {
			t.Errorf("main-slot hits counted %d spill hits", st.SpillHits)
		}
		// docRival takes docHot's slot; the demotion moves docHot into a
		// neighbor's spill region.
		// The request's 8 events and the demotion's 5 — its start, the
		// spill write's 2, the redirect CAS's 2 — split 12 | 1 between the
		// request and the sleep after it, whose own wake is the sleep's
		// resume and second event.
		cost("an evicting miss", 1, 12, func() {
			if err := c.request(p, 0, docRival, buf, &w.scr); err != nil {
				t.Error(err)
			}
		})
		cost("the demotion it queued, while the caller sleeps", 1, 2, func() { p.Sleep(200 * time.Microsecond) })
		if n := tier.docNode[docHot]; n < 0 || tier.docSlot[docHot] < tier.mainSlots[n] {
			t.Errorf("harness: doc %d was not demoted into a spill slot", docHot)
			return
		}
		cost("spill-slot hits", hits, 7*hits, serve)
		if st := tier.Stats(); st.SpillHits != hits {
			t.Errorf("spill-slot hits counted %d spill hits, want %d", st.SpillHits, hits)
		}
		finished = true
	})
	if err := c.env.RunUntil(sim.Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("the driver did not finish")
	}
	if err := tier.Audit(); err != nil {
		t.Fatal(err)
	}
}

// The documents the tail scripts use. With three cache nodes docHot and
// docRival both live on cache node 0 — installing one evicts the other —
// while their directory words are homed on cache nodes 1 and 2; docIdle
// shares docHot's bucket under rebalanced addressing and is never
// installed. TestTierGetTails checks these placements before relying on
// them.
const (
	docHot   = 1
	docRival = 20
	docIdle  = 25
)

// getActor is one process of a tail script, started at instant at on its
// own front-end: a reader (Get), an evictor (Get then Install on the
// miss), a bare Install, or a migration of docHot's bucket to cache node
// 2's shard.
type getActor struct {
	at   time.Duration
	do   string // "get", "request", "install", "migrate"
	doc  int
	want getOutcome // readers only
}

// getOutcome is what a reader observed; done is the instant Get returned.
type getOutcome struct {
	served bool
	err    string
	done   sim.Time
}

// TestTierGetTails drives every way a Get ends other than a clean hit,
// on purpose, and pins what the caller observes: served, the error, the
// counters that moved, the directory word left behind and the instant
// Get returned. The instants were produced by the blocking
// implementation (Exec, Directory.Lookup, Device.Read as three parked
// calls) and are constants: a Get that runs its steps any other way must
// take every decision at the same instant.
func TestTierGetTails(t *testing.T) {
	const ns, us = time.Nanosecond, time.Microsecond
	crash := func(at time.Duration, node int) *faults.Plan {
		return &faults.Plan{Seed: 1, Events: []faults.Event{{At: at, Kind: faults.Crash, Node: node}}}
	}
	cache := func(i int) int { return getCellFEs + i } // cache node index → node ID
	// The evictor's Get misses at 100µs sharp: that is its Install's
	// decision instant, where docHot's slot turns over.
	evictor := getActor{at: 90992 * ns, do: "request", doc: docRival}
	cases := []struct {
		name   string
		opts   TierOptions
		plan   *faults.Plan
		warm   []int // installed one after another from instant 0
		actors []getActor
		stats  TierStats // counters moved by the actors
		word   Entry     // docHot's directory word afterwards
		events uint64    // engine events of the whole script
	}{
		{name: "empty word",
			actors: []getActor{{at: 100 * us, do: "get", doc: docHot, want: getOutcome{done: 109008}}},
			events: 7},
		{name: "dangling word", warm: []int{docHot},
			// Four lookups sample docHot's word before the evictor's clear
			// lands (104µs) and complete after the slot turned over; the
			// fifth samples the cleared word.
			actors: []getActor{
				{at: 91500 * ns, do: "get", doc: docHot, want: getOutcome{done: 108508}},
				{at: 93000 * ns, do: "get", doc: docHot, want: getOutcome{done: 110008}},
				{at: 94500 * ns, do: "get", doc: docHot, want: getOutcome{done: 111508}},
				{at: 96000 * ns, do: "get", doc: docHot, want: getOutcome{done: 113008}},
				{at: 99000 * ns, do: "get", doc: docHot, want: getOutcome{done: 108008}},
				evictor,
			},
			stats: TierStats{Evictions: 1, Invalidations: 5, StaleReads: 4}, events: 59},
		{name: "slot turned over during the slab read", warm: []int{docHot},
			// The first reader is served before 100µs. The other four
			// validate their lookups before it and have their slab reads —
			// queued behind one another on the holder's Tx engine — in
			// flight across it.
			actors: []getActor{
				{at: 80 * us, do: "get", doc: docHot, want: getOutcome{served: true, done: 97283}},
				{at: 83 * us, do: "get", doc: docHot, want: getOutcome{done: 108283}},
				{at: 85 * us, do: "get", doc: docHot, want: getOutcome{done: 110558}},
				{at: 87 * us, do: "get", doc: docHot, want: getOutcome{done: 112833}},
				{at: 89 * us, do: "get", doc: docHot, want: getOutcome{done: 115108}},
				evictor,
			},
			stats: TierStats{Evictions: 1, Invalidations: 5, StaleReads: 4}, events: 77},
		{name: "holder crashed before the slab read", warm: []int{docHot}, plan: crash(105*us, cache(0)),
			actors: []getActor{{at: 100 * us, do: "get", doc: docHot, want: getOutcome{done: 117008}}},
			stats:  TierStats{Invalidations: 1, DeadFallbacks: 1}, events: 18},
		{name: "holder crashed during the slab read", warm: []int{docHot}, plan: crash(105*us, cache(0)),
			actors: []getActor{{at: 94500 * ns, do: "get", doc: docHot, want: getOutcome{done: 117508}}},
			stats:  TierStats{Invalidations: 1, DeadFallbacks: 1}, events: 20},
		{name: "directory home crashed before the lookup", warm: []int{docHot}, plan: crash(102*us, cache(1)),
			actors: []getActor{{at: 100 * us, do: "get", doc: docHot, want: getOutcome{done: 103000}}},
			stats:  TierStats{DeadFallbacks: 1}, events: 13},
		{name: "directory home crashed during the lookup", warm: []int{docHot}, plan: crash(102*us, cache(1)),
			actors: []getActor{{at: 97 * us, do: "get", doc: docHot, want: getOutcome{done: 106000}}},
			stats:  TierStats{DeadFallbacks: 1}, events: 15},
		{name: "front-end crashed", warm: []int{docHot}, plan: crash(102*us, 0),
			// Not a peer fault: the one exit that is the caller's error.
			actors: []getActor{{at: 100 * us, do: "get", doc: docHot,
				want: getOutcome{err: "verbs: read on node 9 key 1: local device down", done: 103000}}},
			word: PackEntry(0, 0), events: 13},
		{name: "bucket migrated during the lookup", opts: TierOptions{Rebalance: true},
			// Both lookups are in flight to the old home when the bucket
			// flips (104µs) and read an empty word there. docHot's install
			// straddles the flip, so its publish lands at the new home
			// (109µs) ahead of the retry's sample and the retry is served;
			// docIdle's retry finds nothing.
			actors: []getActor{
				{at: 100 * us, do: "get", doc: docHot, want: getOutcome{served: true, done: 123291}},
				{at: 100100 * ns, do: "get", doc: docIdle, want: getOutcome{done: 115116}},
				{at: 99225 * ns, do: "install", doc: docHot},
				{at: 104 * us, do: "migrate"},
			},
			stats: TierStats{DirMigrations: 1}, word: PackEntry(0, 0), events: 39},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newGetCell(t, tc.opts, tc.plan)
			tier := c.tier
			if tier.home(docHot) != 0 || tier.home(docRival) != 0 || tier.dir.HomeShard(docHot) != 1 ||
				tier.dir.HomeShard(docRival) != 2 || tier.dir.HomeShard(docIdle) != 1 || tier.mainSlots[0] != 1 {
				t.Fatal("harness: the scripts' documents are not placed where their instants assume")
			}
			var before TierStats
			c.env.Go("warm", func(p *sim.Proc) {
				var scr TierScratch
				buf := make([]byte, TierDocBytes)
				for _, doc := range tc.warm {
					if err := c.request(p, getCellFEs-1, doc, buf, &scr); err != nil {
						t.Error(err)
					}
				}
				if p.Now() > sim.Time(70*us) {
					t.Errorf("harness: warm-up ran until %v, into the script", p.Now())
				}
				before = tier.Stats()
			})
			got := make([]getOutcome, len(tc.actors))
			finished := 0
			for i, a := range tc.actors {
				c.env.Go(fmt.Sprintf("actor%d", i), func(p *sim.Proc) {
					w := newWaiter()
					buf := make([]byte, TierDocBytes)
					p.SleepUntil(sim.Time(a.at))
					var err error
					switch a.do {
					case "get":
						got[i].served, err = c.get(p, i, a.doc, buf, w)
					case "request":
						err = c.request(p, i, a.doc, buf, &w.scr)
					case "install":
						err = w.install(p, tier, c.fes[i], a.doc, buf)
					case "migrate":
						err = tier.dir.migrate(p, tier.devs[0], docHot%tier.dir.buckets, 2)
					}
					if err != nil {
						got[i].err = err.Error()
					}
					got[i].done = p.Now()
					finished++
				})
			}
			if err := c.env.RunUntil(sim.Time(time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			tier.Stop()
			if finished != len(tc.actors) {
				t.Fatalf("%d of %d actors finished", finished, len(tc.actors))
			}
			for i, a := range tc.actors {
				if a.do != "get" {
					if got[i].err != "" {
						t.Errorf("actor %d (%s): %s", i, a.do, got[i].err)
					}
					continue
				}
				if got[i] != a.want {
					t.Errorf("reader %d (doc %d at %v): got %+v, want %+v", i, a.doc, a.at, got[i], a.want)
				}
			}
			st := tier.Stats()
			moved := TierStats{
				Evictions:     st.Evictions - before.Evictions,
				Invalidations: st.Invalidations - before.Invalidations,
				StaleReads:    st.StaleReads - before.StaleReads,
				DeadFallbacks: st.DeadFallbacks - before.DeadFallbacks,
				Rollbacks:     st.Rollbacks - before.Rollbacks,
				DirMigrations: st.DirMigrations,
			}
			if moved != tc.stats {
				t.Errorf("counters moved %+v, want %+v", moved, tc.stats)
			}
			if w := c.word(docHot); w != tc.word {
				t.Errorf("doc %d's word is %#x afterwards, want %#x", docHot, uint64(w), uint64(tc.word))
			}
			if ev := c.env.Stats().EventsProcessed; ev != tc.events {
				t.Errorf("the script ran %d events, want %d", ev, tc.events)
			}
			if err := tier.Audit(); err != nil {
				t.Error(err)
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
