package coopcache

// Tier is the capacity-bounded cache tier of a web-scale cell (E18):
// the sharded one-sided Directory, one multi-slot document slab per
// cache node in registered memory, the recency order of each slab's main
// slots, and — when armed — the cooperative victim spill and the
// hotspot-aware directory rebalancer.
//
// Each node's slab is sized as a fraction (CacheFrac) of its share of
// the working set. A miss install that overflows the slab evicts the
// node's LRU victim and invalidates its directory word with a one-sided
// CAS of the exact observed entry *before* publishing the new document,
// so a capacity-pressured tier runs the full evict → invalidate →
// install → publish churn loop.
//
// Every operation runs as an event chain: a step is a callback at the
// instant — and schedules its successor with the event sequence number —
// of the blocking call it replaces, so no process parks on the tier.
// GetAsync and InstallAsync are a request's lookup and miss install, and
// each node's demotion is one more chain (spill.go).
//
// The slotDoc/docNode/docSlot arrays are the simulation's ground truth
// for what each slab slot holds *right now*. They are only mutated at
// callback instants (never across a costed op), so any chain step
// observing them sees a consistent placement. A front-end that read a
// directory word and then a slab slot validates the read against
// slotDoc afterwards — modeling self-identifying slab content (the
// document ID embedded in the stored bytes): a read that raced an
// eviction comes back with the wrong document and is handled as a
// miss, after clearing the exact stale word observed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/lru"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

const (
	// TierDocBytes is the uniform document size the tier stores.
	TierDocBytes = 2048
	// TierRackSize groups node IDs into racks; a victim spills to a
	// neighbor in the evictor's rack.
	TierRackSize = 32

	// tierSpillFrac sizes a node's reserved spill region relative to its
	// main slot count. The region models the rack's idle memory, so it is
	// deliberately larger than the hot set a node keeps under LRU.
	tierSpillFrac = 1.5
	// tierRebalanceEvery is the rebalancer's virtual tick period.
	tierRebalanceEvery = 200 * time.Microsecond
	// tierDirBuckets is the initial bucket count per directory shard (and
	// as many slack positions) when rebalancing is on.
	tierDirBuckets = 8
	// spillQueueDepth bounds each node's demotion queue; overflow degrades
	// to a plain drop.
	spillQueueDepth = 32
)

// TierOptions configures a Tier.
type TierOptions struct {
	// Docs is the working-set size.
	Docs int
	// CacheFrac sizes each node's slab as a fraction of its share of the
	// working set; 0 or ≥ 1 means exact sizing (no capacity evictions).
	CacheFrac float64
	// Spill reserves a spill region past each node's LRU slots and gives
	// each node a demotion queue: an eviction demotes the victim into a
	// rack neighbor's region (one-sided Write + CAS directory redirect)
	// instead of dropping it.
	Spill bool
	// Rebalance selects bucketed directory addressing and arms the
	// periodic tick that migrates or splits the hottest shard's buckets.
	Rebalance bool
}

// TierStats is a snapshot of the tier's capacity and churn telemetry.
type TierStats struct {
	// CacheFrac is the effective slab fraction (1.0 when exact-sized),
	// Slots the total main document slots across the tier.
	CacheFrac float64
	Slots     int64
	// Evictions counts LRU victims pushed out by capacity pressure,
	// Invalidations the directory Clear CASes issued, StaleReads the hit
	// reads that landed after their entry was evicted, DeadFallbacks the
	// operations degraded to the storage path by an unreachable peer, and
	// Rollbacks the installs undone after losing the publish CAS.
	Evictions, Invalidations, StaleReads, DeadFallbacks, Rollbacks int64
	// SpillSlots is the reserved victim capacity across the tier. Spills
	// counts successful demotions, SpillHits the requests served from a
	// spill slot, SpillDrops the demotions degraded to a plain drop
	// (dead/full neighbors, queue overflow), SpillRedirectLost the
	// demotions undone after losing the directory redirect CAS, and
	// SpillReclaims the oldest-resident evictions a full region made room
	// with.
	SpillSlots                                                      int64
	Spills, SpillHits, SpillDrops, SpillRedirectLost, SpillReclaims int64
	// DirMaxOverMean is the hottest directory shard's read+CAS load over
	// the mean; migrations/splits only move with Rebalance on, and
	// TickSkips counts rebalance ops degraded by unreachable hosts.
	DirMaxOverMean                      float64
	DirMigrations, DirSplits, TickSkips int64
}

// TierScratch is one request driver's reusable state — the records of
// its lookup and install chains, callbacks bound on first use — so a
// request allocates nothing in steady state. The zero value is ready to
// use; it serves one request at a time and must not be copied once used
// (the bound callbacks hold its address).
type TierScratch struct {
	get getChain
	ins installChain
}

// Tier is one cell's cache tier; see the file comment.
type Tier struct {
	env   *sim.Env
	dir   *Directory
	devs  []*verbs.Device // per cache node: slab owner, demotion/rebalance issuer
	slabs []verbs.RemoteAddr

	// main is each node's main slots 0..mainSlots-1: the free stack and
	// the recency order of the occupied ones (a hit or a refresh re-stamps
	// its slot; a full node evicts its least recently used).
	main      []*lru.Ring
	mainSlots []int32   // per node: main slot count = first spill slot index
	slotDoc   [][]int32 // per node: slot → resident doc, -1 free
	docNode   []int32   // doc → cache node index holding it, -1 none
	docSlot   []int32   // doc → slot on docNode
	// dead marks cache nodes observed unreachable; installs skip them.
	// The mark is sticky — a restarted node is simply not re-used as a
	// holder, a conservative failure-detector model.
	dead []bool

	// Cooperative-spill state (nil when disabled) — the paper's filecache
	// idea, a cluster-wide victim cache over aggregate memory, applied to
	// the slab tier: a node's LRU victim is demoted into a rack neighbor's
	// spill region instead of being dropped, and a later miss becomes a
	// one-hop remote cache read. Node n's region is its slab slots from
	// mainSlots[n] on; spill[n] keeps them by region index, outside the
	// main order (free slots plus the recency order of the live claims,
	// so a full region reclaims its least recently used resident first).
	// Each node's demotions run as one chain fed by a fixed ring, so the
	// evictor's request never waits on the spill wire ops.
	spill     []*lru.Ring
	rackPeers [][]int32 // rack → cache-node indices in it
	rackOf    []int32   // cache-node index → rack
	demoters  []demoter

	stopped bool
	// err is the first failure of a demotion or the rebalance tick that
	// was not a degradable fault; Audit reports it.
	err   error
	stats TierStats
}

// NewTier registers the directory and the per-node slabs on the cache
// nodes and, with Rebalance, starts the rebalance tick (see Stop). Each
// node's main slot count is its exact share of the working set (the
// number of documents hashing to it) scaled by CacheFrac, floored at one
// slot; with Spill the slab grows by a reserved victim region.
func NewTier(nw *verbs.Network, caches []*cluster.Node, opts TierOptions) *Tier {
	nc, docs := len(caches), opts.Docs
	buckets, slack := 1, 0
	if opts.Rebalance {
		buckets, slack = tierDirBuckets, tierDirBuckets
	}
	t := &Tier{
		env:       nw.Env,
		dir:       newDirectory(nw, caches, docs, buckets, slack),
		devs:      make([]*verbs.Device, nc),
		slabs:     make([]verbs.RemoteAddr, nc),
		main:      make([]*lru.Ring, nc),
		mainSlots: make([]int32, nc),
		slotDoc:   make([][]int32, nc),
		docNode:   make([]int32, docs),
		docSlot:   make([]int32, docs),
		dead:      make([]bool, nc),
	}
	bounded := opts.CacheFrac > 0 && opts.CacheFrac < 1
	t.stats.CacheFrac = 1
	if bounded {
		t.stats.CacheFrac = opts.CacheFrac
	}
	homeLoad := make([]int, nc)
	for d := range t.docNode {
		t.docNode[d], t.docSlot[d] = -1, -1
		homeLoad[t.home(d)]++
	}
	if opts.Spill {
		t.spill = make([]*lru.Ring, nc)
	}
	for i, n := range caches {
		slots := homeLoad[i]
		if bounded {
			slots = int(opts.CacheFrac * float64(homeLoad[i]))
		}
		if slots < 1 {
			slots = 1
		}
		t.mainSlots[i] = int32(slots)
		spill := 0
		if opts.Spill {
			spill = int(tierSpillFrac*float64(slots) + 0.5)
			t.spill[i] = lru.NewRing(spill)
		}
		total := slots + spill
		t.devs[i] = nw.Attach(n)
		t.slabs[i] = t.devs[i].RegisterAtSetup(make([]byte, total*TierDocBytes)).Addr()
		t.main[i] = lru.NewRing(slots)
		t.slotDoc[i] = make([]int32, total)
		for j := range t.slotDoc[i] {
			t.slotDoc[i][j] = -1
		}
		t.stats.Slots += int64(slots)
		t.stats.SpillSlots += int64(spill)
	}
	if opts.Spill {
		t.rackOf = make([]int32, nc)
		for i, n := range caches {
			r := n.ID / TierRackSize
			t.rackOf[i] = int32(r)
			for len(t.rackPeers) <= r {
				t.rackPeers = append(t.rackPeers, nil)
			}
			t.rackPeers[r] = append(t.rackPeers[r], int32(i))
		}
		t.demoters = make([]demoter, nc)
		for n := range t.demoters {
			t.demoters[n].bind(t, n)
		}
	}
	if opts.Rebalance {
		// The tick issues its control-plane ops from the first cache
		// node's device; an unreachable host just skips the pass. Run ends
		// only when the event queue drains, so the loop must end with the
		// drivers (Stop) rather than sleep forever.
		t.env.GoDaemon("rebalance", func(p *sim.Proc) {
			for !t.stopped {
				p.Sleep(tierRebalanceEvery)
				if err := t.dir.RebalanceTick(p, t.devs[0]); err != nil {
					t.fail(err)
					return
				}
			}
		})
	}
	return t
}

// Stop ends the rebalance tick once the caller's last driver has
// finished, so the environment's event queue can drain.
func (t *Tier) Stop() { t.stopped = true }

// Stats returns the telemetry snapshot.
func (t *Tier) Stats() TierStats {
	st := t.stats
	st.DirMaxOverMean = t.dir.LoadMaxOverMean()
	st.DirMigrations, st.DirSplits, st.TickSkips = t.dir.Migrations(), t.dir.Splits(), t.dir.TickSkips()
	return st
}

func (t *Tier) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// home maps a document to its preferred holder (a cache node index).
func (t *Tier) home(doc int) int {
	return int((uint32(doc)*2654435761)>>16) % len(t.main)
}

// netFault is the class of one-sided op failure the cache tier degrades
// on instead of failing.
type netFault int

const (
	faultNone  netFault = iota // not a network fault: a programming error
	faultPeer                  // the far side is crashed or partitioned
	faultLocal                 // the issuing device's own node is down
)

// faultOf classifies err. Front-end requests degrade only on faultPeer
// (a front-end whose own device is down cannot serve at all); the
// demotions and the rebalance tick issue from cache-node devices, so a
// crash of their own node must degrade them too, not fail the cell.
func faultOf(err error) netFault {
	var oe *verbs.OpError
	if errors.As(err, &oe) {
		switch oe.Reason {
		case "peer unreachable":
			return faultPeer
		case "local device down":
			return faultLocal
		}
	}
	return faultNone
}

// GetAsync is a front-end request's cache lookup, run as an event chain
// on scr's get record: the admission burst cpu on dev's node, then doc
// resolved through the directory and, on a hit, read from the holder's
// slab into buf with dev's one-sided ops. done(served=false) sends the
// caller down the miss path: no entry, a crashed directory home or
// holder (degraded, never an error), or a stale entry — evicted
// mid-flight, so the slab bytes identify the wrong document. A stale or
// dead word observed is cleared so later requests don't chase it, and
// done runs when that clear completes.
func (t *Tier) GetAsync(dev *verbs.Device, cpu time.Duration, doc int, buf []byte, scr *TierScratch, done func(served bool, err error)) {
	c := &scr.get
	if c.t != t {
		c.bind(t)
	}
	c.dev, c.doc, c.buf, c.attempt, c.done = dev, doc, buf, 0, done
	dev.Node.ExecAsync(cpu, c.lookupFn)
}

// getChain runs a lookup — admission CPU, directory read, validation
// against slotDoc, slab read, validation again, and on a deviation the
// clear of the word observed — as completion callbacks at the exact
// instants the same steps ran as blocking calls (Node.Exec,
// Directory.Lookup, Device.Read, Directory.Clear). Every step is a tail
// call: done, the last, may start the driver's next request on this very
// record. The record lives in the driver's TierScratch.
type getChain struct {
	t     *Tier
	dev   *verbs.Device
	doc   int
	buf   []byte
	word  [8]byte // directory read target
	epoch uint32  // directory epoch the lookup was issued under
	// attempt counts lookup re-issues (see Directory.retryLookup).
	attempt int
	e       Entry // the word the lookup read
	done    func(served bool, err error)
	dir     dirOp // the clear of a stale or dead word

	lookupFn, clearedFn func()
	dirCQ, slabCQ       *verbs.CQ
}

func (c *getChain) bind(t *Tier) {
	c.t = t
	c.lookupFn, c.clearedFn = c.lookup, c.cleared
	c.dirCQ = verbs.HandlerCQ(c.dirDone)
	c.slabCQ = verbs.HandlerCQ(c.slabDone)
}

// lookup issues the directory read: at the admission burst's release
// instant, and again on each retry.
func (c *getChain) lookup() {
	d := c.t.dir
	c.epoch = d.epoch
	target, off := d.lookupTarget(c.doc, c.dev.Node.ID)
	c.dev.Issue(c.dirCQ, verbs.WR{Op: verbs.OpRead, Target: target, Off: off, Dst: c.word[:]})
}

// dirDone runs at the directory read's completion instant (inside lookup
// if the read failed validation).
func (c *getChain) dirDone(comp verbs.Completion) {
	t := c.t
	if comp.Err != nil {
		c.done(false, t.homeFault(comp.Err, c.doc))
		return
	}
	e := Entry(binary.LittleEndian.Uint64(c.word[:]))
	if t.dir.retryLookup(e, c.epoch, c.attempt) {
		c.attempt++
		c.lookup()
		return
	}
	c.e = e
	if e == 0 {
		c.done(false, nil)
		return
	}
	h, s := e.Holder(), e.Slot()
	if h < 0 || h >= len(t.main) || s < 0 || s >= len(t.slotDoc[h]) || t.slotDoc[h][s] != int32(c.doc) {
		c.stale()
		return
	}
	c.dev.Issue(c.slabCQ, verbs.WR{Op: verbs.OpRead, Target: t.slabs[h], Off: s * TierDocBytes, Dst: c.buf})
}

// slabDone runs at the slab read's completion instant.
func (c *getChain) slabDone(comp verbs.Completion) {
	t := c.t
	h, s := c.e.Holder(), c.e.Slot()
	switch {
	case comp.Err != nil:
		if faultOf(comp.Err) != faultPeer {
			c.done(false, comp.Err)
			return
		}
		// Crashed holder: clear the dead entry, drop our bookkeeping for
		// it, and let the caller re-install elsewhere.
		t.dead[h] = true
		t.stats.DeadFallbacks++
		t.dropIfAt(c.doc, h, int32(s))
		t.clearEntry(&c.dir, c.dev, c.doc, c.e, c.clearedFn)
	case t.slotDoc[h][s] != int32(c.doc):
		c.stale()
	case s >= int(t.mainSlots[h]):
		// Served from the holder's spill region: the victim tier paid
		// off. Re-stamp the claim so the region reclaims in recency order
		// — without this, a hot resident is dropped just because it was
		// demoted early.
		t.stats.SpillHits++
		t.spill[h].Touch(int32(s) - t.mainSlots[h])
		c.done(true, nil)
	default:
		t.main[h].Touch(int32(s))
		c.done(true, nil)
	}
}

// stale handles a dangling word (the placement it names no longer holds
// doc), or a slot that turned over while the read was in flight so the
// bytes read belong to another document: clear the exact word observed.
func (c *getChain) stale() {
	c.t.stats.StaleReads++
	c.t.clearEntry(&c.dir, c.dev, c.doc, c.e, c.clearedFn)
}

func (c *getChain) cleared() { c.done(false, c.t.cleared(&c.dir)) }

// InstallAsync places a document fetched on the miss path into the tier,
// as an event chain on scr's install record: evict the LRU victim if the
// node is full, hand it to the node's demotion queue or invalidate its
// directory word, write the slab slot, publish the new word. All local
// metadata for the placement — victim slots freed, the new slot claimed —
// is assigned at the decision instant, before any costed op, so
// concurrent installers observe a consistent placement throughout.
// Unreachable peers degrade the install to serving uncached. done gets
// the install's error; an install that issues nothing (dead directory
// home, every node dead) calls it before InstallAsync returns.
func (t *Tier) InstallAsync(dev *verbs.Device, doc int, buf []byte, scr *TierScratch, done func(error)) {
	c := &scr.ins
	if c.t != t {
		c.bind(t)
	}
	c.start(dev, doc, buf, done)
}

// installChain runs an install's steps as completion callbacks at the
// instants the same steps ran as blocking calls (Directory.Clear,
// Device.Write, Directory.Publish), each a tail call.
type installChain struct {
	t       *Tier
	dev     *verbs.Device
	doc     int
	buf     []byte
	n       int   // the holder
	s       int32 // the slot on it
	refresh bool  // re-publishing a placement a concurrent installer claimed
	done    func(error)
	dir     dirOp

	victimClearedFn, publishedFn, danglingClearedFn func()
	writeCQ                                         *verbs.CQ
}

func (c *installChain) bind(t *Tier) {
	c.t = t
	c.victimClearedFn, c.publishedFn, c.danglingClearedFn = c.victimCleared, c.published, c.danglingCleared
	c.writeCQ = verbs.HandlerCQ(c.written)
}

func (c *installChain) start(dev *verbs.Device, doc int, buf []byte, done func(error)) {
	t := c.t
	c.dev, c.doc, c.buf, c.done = dev, doc, buf, done
	if t.dead[t.dir.HomeShard(doc)] {
		c.done(nil) // directory home dead: no lookup could ever find the copy
		return
	}
	if n := t.docNode[doc]; n >= 0 {
		// A concurrent installer already claimed a slot for doc (its
		// publish may still be in flight): refresh that copy and
		// re-publish the same word. Losing this CAS is the common
		// duplicate-install race — the winner published the identical
		// word — so no rollback.
		c.refresh, c.n, c.s = true, int(n), t.docSlot[doc]
		if c.s < t.mainSlots[n] { // a spill resident keeps its region's order
			t.main[n].Touch(c.s)
		}
		c.write()
		return
	}

	// Fresh install: place on the doc's home node, skipping nodes
	// observed dead.
	n := t.home(doc)
	for i := 0; i < len(t.main) && t.dead[n]; i++ {
		n = (n + 1) % len(t.main)
	}
	if t.dead[n] {
		t.stats.DeadFallbacks++
		c.done(nil) // entire tier unreachable: serve uncached
		return
	}

	// Decision instant: claim a free slot, or evict the node's least
	// recently used document and take its slot.
	victim := int32(-1)
	s, ok := t.main[n].Claim()
	if !ok {
		s, _ = t.main[n].Reclaim() // a full node has a resident
		victim = t.slotDoc[n][s]
		t.docNode[victim], t.docSlot[victim] = -1, -1
		t.stats.Evictions++
	}
	t.slotDoc[n][s] = int32(doc)
	t.docNode[doc], t.docSlot[doc] = int32(n), s
	c.refresh, c.n, c.s = false, n, s

	// Deal with the victim's directory word before publishing the new
	// document. With spill enabled the victim goes to the node's demotion
	// queue — its word stays up until the demotion redirects it to the
	// spill copy (a reader racing the turnover fails slab validation and
	// degrades to a miss, exactly the stale-read path). Otherwise
	// invalidate eagerly: a reader must never find a committed word naming
	// a slot the tier has already handed out.
	if victim >= 0 && !t.enqueueSpill(n, victim, s) {
		t.clearEntry(&c.dir, dev, int(victim), PackEntry(n, int(s)), c.victimClearedFn)
		return
	}
	c.write()
}

func (c *installChain) victimCleared() {
	if err := c.t.cleared(&c.dir); err != nil {
		c.done(err)
		return
	}
	c.write()
}

func (c *installChain) write() {
	c.dev.Issue(c.writeCQ, verbs.WR{Op: verbs.OpWrite, Target: c.t.slabs[c.n], Off: int(c.s) * TierDocBytes, Src: c.buf})
}

// written runs at the slab write's completion instant.
func (c *installChain) written(comp verbs.Completion) {
	if comp.Err != nil {
		c.done(c.t.holderFault(comp.Err, c.doc, c.n, c.s))
		return
	}
	c.t.dir.mutate(&c.dir, dirPublish, c.dev, c.doc, 0, PackEntry(c.n, int(c.s)), c.publishedFn)
}

// published runs when the publish CAS (with its undo and replica CASes)
// completes.
func (c *installChain) published() {
	t, op := c.t, &c.dir
	switch {
	case c.refresh:
		c.done(t.homeFault(op.err, c.doc))
	case op.err != nil:
		err := t.homeFault(op.err, c.doc)
		if err == nil {
			t.dropIfAt(c.doc, c.n, c.s)
		}
		c.done(err)
	case !op.won:
		// A racing publisher (or a not-yet-invalidated stale word) holds
		// the directory word: roll the local install back so the slab slot
		// isn't silently orphaned.
		t.stats.Rollbacks++
		t.dropIfAt(c.doc, c.n, c.s)
		c.done(nil)
	case t.docNode[c.doc] != int32(c.n) || t.docSlot[c.doc] != c.s:
		// Our slot was evicted while the write/publish was in flight; the
		// word we just published is already dangling — clear it.
		t.clearEntry(&c.dir, c.dev, c.doc, PackEntry(c.n, int(c.s)), c.danglingClearedFn)
	default:
		c.done(nil)
	}
}

func (c *installChain) danglingCleared() { c.done(c.t.cleared(&c.dir)) }

// homeFault handles a failed directory op on doc's word: an unreachable
// directory home is marked dead and the request degrades to the storage
// path; anything else is the caller's error.
func (t *Tier) homeFault(err error, doc int) error {
	if faultOf(err) != faultPeer {
		return err
	}
	t.dead[t.dir.HomeShard(doc)] = true
	t.stats.DeadFallbacks++
	return nil
}

// holderFault handles a failed slab write to holder n: an unreachable
// holder is marked dead and doc's placement there dropped (the document
// is served uncached); anything else is the caller's error.
func (t *Tier) holderFault(err error, doc, n int, s int32) error {
	if faultOf(err) != faultPeer {
		return err
	}
	t.dead[n] = true
	t.stats.DeadFallbacks++
	t.dropIfAt(doc, n, s)
	return nil
}

// clearEntry starts the CAS of doc's directory word from the exact
// observed entry to empty on op; then runs when it completes, and reads
// the outcome with cleared.
func (t *Tier) clearEntry(op *dirOp, dev *verbs.Device, doc int, e Entry, then func()) {
	t.stats.Invalidations++
	t.dir.mutate(op, dirClear, dev, doc, e, 0, then)
}

// cleared is the error of the clearEntry that ran on op. Losing the CAS
// is benign (a republish already replaced the word); an unreachable
// directory home is tolerated.
func (t *Tier) cleared(op *dirOp) error {
	if err := op.err; err != nil {
		if faultOf(err) != faultPeer {
			return err
		}
		t.dead[t.dir.HomeShard(op.doc)] = true
	}
	return nil
}

// dropIfAt undoes doc's local placement if it still is (n, s): the slot
// claim (main or spill) and the doc→node map. A no-op
// if a concurrent evictor already recycled the slot.
func (t *Tier) dropIfAt(doc, n int, s int32) {
	if t.docNode[doc] != int32(n) || t.docSlot[doc] != s {
		return
	}
	if s >= t.mainSlots[n] {
		t.spill[n].Release(s - t.mainSlots[n])
	} else {
		t.main[n].Release(s)
	}
	t.slotDoc[n][s] = -1
	t.docNode[doc], t.docSlot[doc] = -1, -1
}

// Audit checks the tier's invariants; call it once the environment has
// drained. It first reports a non-degradable failure of a demotion or
// the rebalance tick, if any. Then, over the ground-truth arrays
// (metadata only, no simulated cost): each node's main-slot ring and
// spill-region ring is coherent in itself (lru.Ring.Audit: the
// claim/evict/release order the chains drive), every occupied slab slot
// (main or spill) is bound to exactly the document whose metadata names
// it, every placed document names an occupied slot holding it — so no
// slot is claimed by two documents — each node's LRU order holds exactly
// its occupied main slots, and each node's live spill claims are exactly
// its occupied spill slots. A violation is a lost or duplicated
// placement, the corruption class the install, spill and rebalance races
// must never produce.
func (t *Tier) Audit() error {
	if t.err != nil {
		return t.err
	}
	for n := range t.slotDoc {
		if err := t.main[n].Audit(); err != nil {
			return fmt.Errorf("coopcache: tier audit: node %d main slots: %w", n, err)
		}
		if t.spill != nil {
			if err := t.spill[n].Audit(); err != nil {
				return fmt.Errorf("coopcache: tier audit: node %d spill region: %w", n, err)
			}
		}
		main, spilled := 0, 0
		for s, d := range t.slotDoc[n] {
			if d < 0 {
				continue
			}
			if int32(s) < t.mainSlots[n] {
				main++
			} else {
				spilled++
			}
			if t.docNode[d] != int32(n) || t.docSlot[d] != int32(s) {
				return fmt.Errorf("coopcache: tier audit: slot (%d,%d) holds doc %d but its metadata names (%d,%d)",
					n, s, d, t.docNode[d], t.docSlot[d])
			}
		}
		if got := t.main[n].Live(); got != main {
			return fmt.Errorf("coopcache: tier audit: node %d LRU holds %d members but %d main slots are occupied", n, got, main)
		}
		if t.spill != nil && t.spill[n].Live() != spilled {
			return fmt.Errorf("coopcache: tier audit: node %d has %d live spill claims but %d spill residents",
				n, t.spill[n].Live(), spilled)
		}
	}
	for d, n := range t.docNode {
		if n < 0 {
			continue
		}
		s := t.docSlot[d]
		if s < 0 || int(s) >= len(t.slotDoc[n]) || t.slotDoc[n][s] != int32(d) {
			return fmt.Errorf("coopcache: tier audit: doc %d metadata names (%d,%d) but the slot holds another document", d, n, s)
		}
	}
	return nil
}
