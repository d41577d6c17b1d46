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
// The slotDoc/docNode/docSlot arrays are the simulation's ground truth
// for what each slab slot holds *right now*. They are only mutated at
// callback instants (never across a costed op), so any process
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
	// Spill reserves a spill region past each node's LRU slots and arms
	// one demotion worker per node: an eviction demotes the victim into a
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

// TierScratch is one driver process's reusable request state — the
// record of its Get chain, callbacks bound on first use — so a request
// allocates nothing in steady state. The zero value is ready to use; it
// must not be shared between processes, nor copied once used (the bound
// callbacks hold its address).
type TierScratch struct {
	get getChain
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

	// Cooperative-spill state (nil when disabled). Slots past
	// mainSlots[i] on node i are its reserved spill region; spilled
	// documents sit outside the main order and are reclaimed oldest-first
	// by the region manager. Each node runs one demotion worker daemon fed
	// by a fixed ring, so the evictor's request never waits on the spill
	// wire ops.
	spill      *SpillRegions
	rackPeers  [][]int32 // rack → cache-node indices in it
	rackOf     []int32   // cache-node index → rack
	spillQ     []spillRing
	workers    []*sim.Proc
	workerIdle []bool

	stopped bool
	// err is the first failure of a tier daemon that was not a degradable
	// fault; Audit reports it.
	err   error
	stats TierStats
}

// spillRing is one node's fixed-capacity demotion queue.
type spillRing struct {
	buf     [spillQueueDepth]spillJob
	head, n int
}

type spillJob struct{ doc, slot int32 }

func (q *spillRing) push(j spillJob) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = j
	q.n++
	return true
}

func (q *spillRing) pop() (spillJob, bool) {
	if q.n == 0 {
		return spillJob{}, false
	}
	j := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return j, true
}

// NewTier registers the directory and the per-node slabs on the cache
// nodes and starts the tier's daemons (the demotion workers with Spill,
// the rebalance tick with Rebalance; see Stop). Each node's main
// slot count is its exact share of the working set (the number of
// documents hashing to it) scaled by CacheFrac, floored at one slot;
// with Spill the slab grows by a reserved victim region.
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
	spillCount := make([]int32, nc)
	for i, n := range caches {
		slots := homeLoad[i]
		if bounded {
			slots = int(opts.CacheFrac * float64(homeLoad[i]))
		}
		if slots < 1 {
			slots = 1
		}
		t.mainSlots[i] = int32(slots)
		if opts.Spill {
			spillCount[i] = int32(tierSpillFrac*float64(slots) + 0.5)
		}
		total := slots + int(spillCount[i])
		t.devs[i] = nw.Attach(n)
		t.slabs[i] = t.devs[i].RegisterAtSetup(make([]byte, total*TierDocBytes)).Addr()
		t.main[i] = lru.NewRing(slots)
		t.slotDoc[i] = make([]int32, total)
		for j := range t.slotDoc[i] {
			t.slotDoc[i][j] = -1
		}
		t.stats.Slots += int64(slots)
		t.stats.SpillSlots += int64(spillCount[i])
	}
	if opts.Spill {
		t.spill = NewSpillRegions(t.mainSlots, spillCount)
		t.rackOf = make([]int32, nc)
		for i, n := range caches {
			r := n.ID / TierRackSize
			t.rackOf[i] = int32(r)
			for len(t.rackPeers) <= r {
				t.rackPeers = append(t.rackPeers, nil)
			}
			t.rackPeers[r] = append(t.rackPeers[r], int32(i))
		}
		t.spillQ = make([]spillRing, nc)
		t.workers = make([]*sim.Proc, nc)
		t.workerIdle = make([]bool, nc)
		for n := range t.workers {
			nn := n
			t.workers[n] = t.env.GoDaemon(fmt.Sprintf("spill-%d", nn), func(p *sim.Proc) { t.spillWorker(p, nn) })
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

// Stop ends the tier's periodic daemon once the caller's last driver
// has finished, so the environment's event queue can drain. The parked
// demotion workers go with the environment's Shutdown.
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
// (a front-end whose own device is down cannot serve at all); the tier's
// daemons issue from cache-node devices, so a crash of their own node
// must degrade the demotion or tick too, not fail the cell.
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

// Get is a front-end request's cache lookup: the admission burst cpu on
// dev's node, then doc resolved through the directory and, on a hit, read
// from the holder's slab into buf with dev's one-sided ops. served=false
// sends the caller down the miss path: no entry, a crashed directory
// home or holder (degraded, never an error), or a stale entry — evicted
// mid-flight, so the slab bytes identify the wrong document. A stale or
// dead word observed is cleared so later requests don't chase it.
//
// The steps every hit pays run as one event chain (getChain) while p
// parks once; the chain hands p back at the instant of its last step —
// the hit, or the first deviation from one — and everything from there
// on is blocking code in p, at that instant.
func (t *Tier) Get(p *sim.Proc, dev *verbs.Device, cpu time.Duration, doc int, buf []byte, scr *TierScratch) (served bool, err error) {
	c := &scr.get
	if c.t != t {
		c.bind(t)
	}
	c.p, c.dev, c.doc, c.buf, c.attempt = p, dev, doc, buf, 0
	dev.Node.ExecBegin()
	dev.Node.CPU().HoldAsync(1, cpu, nil, c.cpuDoneFn)
	p.Park(parkTierGet)

	e, err := c.e, c.err
	h, s := e.Holder(), e.Slot()
	switch c.exit {
	case getLookupFailed:
		return false, t.homeFault(err, doc)
	case getEmpty:
		return false, nil
	case getStale:
		// Dangling word (the placement it names no longer holds doc), or
		// the slot turned over while the read was in flight and the bytes
		// read belong to another document.
		t.stats.StaleReads++
		return false, t.clearEntry(p, dev, doc, e)
	case getReadFailed:
		if faultOf(err) != faultPeer {
			return false, err
		}
		// Crashed holder: clear the dead entry, drop our bookkeeping
		// for it, and let the caller re-install elsewhere.
		t.dead[h] = true
		t.stats.DeadFallbacks++
		t.dropIfAt(doc, h, int32(s))
		return false, t.clearEntry(p, dev, doc, e)
	}
	if s >= int(t.mainSlots[h]) {
		// Served from the holder's spill region: the victim tier paid
		// off. Re-stamp the claim so the region reclaims in recency order
		// — without this, a hot resident is dropped just because it was
		// demoted early.
		t.stats.SpillHits++
		t.spill.Touch(h, int32(s))
		return true, nil
	}
	t.main[h].Touch(int32(s))
	return true, nil
}

const parkTierGet = "tier get"

// getExit is where a Get's chain stopped.
type getExit uint8

const (
	getHit          getExit = iota // slab read validated
	getLookupFailed                // directory read failed: err
	getEmpty                       // no entry
	getStale                       // the word names a slot that does not, or no longer does, hold doc
	getReadFailed                  // slab read failed: err
)

// getChain runs the steps every cache hit pays — admission CPU, directory
// read, validation against slotDoc, slab read, validation again — as
// completion callbacks at the exact instants the same steps ran as three
// blocking calls (Node.Exec, Directory.Lookup, Device.Read), with the
// driver parked once instead of three times. The chain owns nothing
// else: at a hit, or at the first step that deviates from one, it records
// the exit and hands the driver back inside that step's event
// (sim.Env.Continue), and Get's blocking tail takes every decision the
// blocking code took, at the same instant from the same state. The
// record lives in the driver's TierScratch.
type getChain struct {
	t     *Tier
	p     *sim.Proc
	dev   *verbs.Device
	doc   int
	buf   []byte
	word  [8]byte // directory read target
	epoch uint32  // directory epoch the lookup was issued under
	// attempt counts lookup re-issues (see Directory.retryLookup).
	attempt int

	exit getExit
	e    Entry // the word the lookup read
	err  error // of the read that failed

	cpuDoneFn     func()
	dirCQ, slabCQ *verbs.CQ
}

func (c *getChain) bind(t *Tier) {
	c.t = t
	c.cpuDoneFn = c.cpuDone
	c.dirCQ = verbs.HandlerCQ(c.dirDone)
	c.slabCQ = verbs.HandlerCQ(c.slabDone)
}

// cpuDone runs at the admission burst's release instant.
func (c *getChain) cpuDone() {
	c.dev.Node.ExecDone()
	c.lookup()
}

// lookup issues the directory read.
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
		c.handBack(getLookupFailed, comp.Err)
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
		c.handBack(getEmpty, nil)
		return
	}
	h, s := e.Holder(), e.Slot()
	if h < 0 || h >= len(t.main) || s < 0 || s >= len(t.slotDoc[h]) || t.slotDoc[h][s] != int32(c.doc) {
		c.handBack(getStale, nil)
		return
	}
	c.dev.Issue(c.slabCQ, verbs.WR{Op: verbs.OpRead, Target: t.slabs[h], Off: s * TierDocBytes, Dst: c.buf})
}

// slabDone runs at the slab read's completion instant.
func (c *getChain) slabDone(comp verbs.Completion) {
	switch {
	case comp.Err != nil:
		c.handBack(getReadFailed, comp.Err)
	case c.t.slotDoc[c.e.Holder()][c.e.Slot()] != int32(c.doc):
		c.handBack(getStale, nil)
	default:
		c.handBack(getHit, nil)
	}
}

// handBack ends the chain: the driver continues in Get, at this instant,
// as soon as the running callback returns.
func (c *getChain) handBack(exit getExit, err error) {
	c.exit, c.err = exit, err
	c.t.env.Continue(c.p)
}

// Install places a document fetched on the miss path into the tier:
// evict the LRU victim if the node is full, invalidate its directory
// word, write the slab slot, publish the new word. All local metadata for the
// placement — victim slots freed, the new slot claimed — is assigned at
// the decision instant, before any costed op, so concurrent installers
// observe a consistent placement throughout. Unreachable peers degrade
// the install to serving uncached.
func (t *Tier) Install(p *sim.Proc, dev *verbs.Device, doc int, buf []byte) error {
	if t.dead[t.dir.HomeShard(doc)] {
		return nil // directory home dead: no lookup could ever find the copy
	}
	if n := t.docNode[doc]; n >= 0 {
		// A concurrent installer already claimed a slot for doc (its
		// publish may still be in flight): refresh that copy and
		// re-publish the same word. Losing this CAS is the common
		// duplicate-install race — the winner published the identical
		// word — so no rollback.
		s := t.docSlot[doc]
		if s < t.mainSlots[n] { // a spill resident keeps its region's order
			t.main[n].Touch(s)
		}
		if err := dev.Write(p, t.slabs[n], int(s)*TierDocBytes, buf); err != nil {
			return t.holderFault(err, doc, int(n), s)
		}
		if _, err := t.dir.Publish(p, dev, doc, PackEntry(int(n), int(s))); err != nil {
			return t.homeFault(err, doc)
		}
		return nil
	}

	// Fresh install: place on the doc's home node, skipping nodes
	// observed dead.
	n := t.home(doc)
	for i := 0; i < len(t.main) && t.dead[n]; i++ {
		n = (n + 1) % len(t.main)
	}
	if t.dead[n] {
		t.stats.DeadFallbacks++
		return nil // entire tier unreachable: serve uncached
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

	// Deal with the victim's directory word before publishing the new
	// document. With spill enabled the victim is handed to the node's
	// demotion worker — its word stays up until the worker redirects it
	// to the spill copy (a reader racing the turnover fails slab
	// validation and degrades to a miss, exactly the stale-read path).
	// Otherwise invalidate eagerly: a reader must never find a
	// committed word naming a slot the tier has already handed out.
	if victim >= 0 && !t.enqueueSpill(n, victim, s) {
		if err := t.clearEntry(p, dev, int(victim), PackEntry(n, int(s))); err != nil {
			return err
		}
	}

	if err := dev.Write(p, t.slabs[n], int(s)*TierDocBytes, buf); err != nil {
		return t.holderFault(err, doc, n, s)
	}
	e := PackEntry(n, int(s))
	won, err := t.dir.Publish(p, dev, doc, e)
	if err != nil {
		if err = t.homeFault(err, doc); err == nil {
			t.dropIfAt(doc, n, s)
		}
		return err
	}
	if !won {
		// A racing publisher (or a not-yet-invalidated stale word)
		// holds the directory word: roll the local install back so the
		// slab slot isn't silently orphaned.
		t.stats.Rollbacks++
		t.dropIfAt(doc, n, s)
		return nil
	}
	if t.docNode[doc] != int32(n) || t.docSlot[doc] != s {
		// Our slot was evicted while the write/publish was in flight;
		// the word we just published is already dangling — clear it.
		return t.clearEntry(p, dev, doc, e)
	}
	return nil
}

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

// clearEntry CASes doc's directory word from the exact observed entry
// to empty. Losing the CAS is benign (a republish already replaced the
// word); an unreachable directory home is tolerated.
func (t *Tier) clearEntry(p *sim.Proc, dev *verbs.Device, doc int, e Entry) error {
	t.stats.Invalidations++
	if _, err := t.dir.Clear(p, dev, doc, e); err != nil {
		if faultOf(err) != faultPeer {
			return err
		}
		t.dead[t.dir.HomeShard(doc)] = true
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
		t.spill.Release(n, s)
	} else {
		t.main[n].Release(s)
	}
	t.slotDoc[n][s] = -1
	t.docNode[doc], t.docSlot[doc] = -1, -1
}

// enqueueSpill hands an evicted victim to node n's demotion worker.
// false when spill is off or the ring is full (the caller invalidates
// eagerly — a plain drop).
func (t *Tier) enqueueSpill(n int, doc, slot int32) bool {
	if t.spill == nil {
		return false
	}
	if !t.spillQ[n].push(spillJob{doc: doc, slot: slot}) {
		t.stats.SpillDrops++
		return false
	}
	if t.workerIdle[n] {
		t.workerIdle[n] = false
		t.env.Wake(t.workers[n])
	}
	return true
}

const parkSpillIdle = "spill-idle"

// spillWorker is node n's demotion daemon: it drains the ring, parking
// when idle. The payload buffer is per-worker, so demotions allocate
// nothing in steady state.
func (t *Tier) spillWorker(p *sim.Proc, n int) {
	buf := make([]byte, TierDocBytes)
	for {
		j, ok := t.spillQ[n].pop()
		if !ok {
			t.workerIdle[n] = true
			p.Park(parkSpillIdle)
			continue
		}
		if err := t.runSpill(p, n, j, buf); err != nil {
			t.fail(err)
		}
	}
}

// runSpill demotes one victim: claim a spill slot on a rack neighbor
// (reclaiming the neighbor's oldest spill resident when the region is
// full), write the bytes, and swing the victim's directory word from
// the evicted slot to the spill slot with one CAS. Every failure mode
// — no viable neighbor, unreachable target, lost redirect — degrades
// to the plain drop the tier did before spill existed; only a
// non-degradable op failure is returned.
func (t *Tier) runSpill(p *sim.Proc, n int, j spillJob, buf []byte) error {
	doc := int(j.doc)
	dev := t.devs[n]
	old := PackEntry(n, int(j.slot))
	if t.docNode[doc] != -1 {
		if t.docNode[doc] == int32(n) && t.docSlot[doc] == j.slot {
			// Re-installed at the very same placement while queued: the
			// old word IS the live word — leave it alone.
			return nil
		}
		// The doc was re-installed elsewhere while queued; our stale
		// word is whatever the installer raced against. Just take it out.
		return t.clearEntry(p, dev, doc, old)
	}
	tgt := t.pickSpillTarget(n)
	if tgt < 0 {
		t.stats.SpillDrops++
		return t.clearEntry(p, dev, doc, old)
	}
	ss, ok := t.spill.Claim(tgt)
	odDoc := int32(-1)
	if !ok {
		ss, ok = t.spill.Reclaim(tgt)
		if ok {
			if od := t.slotDoc[tgt][ss]; od >= 0 {
				// Drop the oldest spill resident to make room. Only the
				// metadata moves at this instant; its directory word is
				// invalidated below, after the slot is ours — issuing the
				// CAS first would open a window where a racing installer
				// rebinds the victim while this worker still assumes it
				// owns the claim.
				t.stats.SpillReclaims++
				t.docNode[od], t.docSlot[od] = -1, -1
				odDoc = od
			}
		}
	}
	if !ok {
		t.stats.SpillDrops++
		return t.clearEntry(p, dev, doc, old)
	}
	// Claim the placement at this decision instant, before any costed
	// op, so concurrent readers validate consistently.
	t.slotDoc[tgt][ss] = j.doc
	t.docNode[doc], t.docSlot[doc] = int32(tgt), ss
	if odDoc >= 0 {
		// The reclaimed resident's word still names this slot; take it
		// out so lookups stop chasing a placement that now holds doc.
		// (A reader that races this clear fails slab validation anyway.)
		if err := t.clearEntry(p, dev, int(odDoc), PackEntry(tgt, int(ss))); err != nil {
			return err
		}
	}
	if err := dev.Write(p, t.slabs[tgt], int(ss)*TierDocBytes, buf); err != nil {
		f := faultOf(err)
		if f == faultNone {
			return err
		}
		if f == faultPeer {
			t.dead[tgt] = true
		}
		t.stats.DeadFallbacks++
		t.stats.SpillDrops++
		t.dropIfAt(doc, tgt, ss)
		return t.clearEntry(p, dev, doc, old)
	}
	ne := PackEntry(tgt, int(ss))
	won, prev, err := t.dir.Redirect(p, dev, doc, old, ne)
	if err != nil {
		f := faultOf(err)
		if f == faultNone {
			return err
		}
		if f == faultPeer {
			t.dead[t.dir.HomeShard(doc)] = true
		}
		t.stats.DeadFallbacks++
		t.stats.SpillDrops++
		t.dropIfAt(doc, tgt, ss)
		return nil
	}
	if won || prev == ne {
		// Won outright, or a concurrent refresher already published the
		// identical placement — either way the spill copy is live.
		t.stats.Spills++
		return nil
	}
	// The word changed under us (cleared by a racing reader, or the doc
	// was reinstalled): undo the claim, the demotion degrades to a drop.
	t.stats.SpillRedirectLost++
	t.dropIfAt(doc, tgt, ss)
	return nil
}

// pickSpillTarget ranks node n's live rack neighbors by spill-region
// free slots, then free main slots, preferring the lowest index on ties —
// the per-rack pressure hint. Falls back to n's own region when no
// neighbor qualifies; -1 degrades the demotion to a drop.
func (t *Tier) pickSpillTarget(n int) int {
	best, bestFree, bestHead := -1, -1, -1
	for _, t32 := range t.rackPeers[t.rackOf[n]] {
		c := int(t32)
		if c == n || t.dead[c] {
			continue
		}
		free := t.spill.Free(c)
		head := t.main[c].Free()
		if free > bestFree || (free == bestFree && head > bestHead) {
			best, bestFree, bestHead = c, free, head
		}
	}
	if best < 0 && !t.dead[n] {
		best = n
	}
	return best
}

// Audit checks the tier's invariants; call it once the environment has
// drained. It first reports a tier daemon's non-degradable failure, if
// any. Then, over the ground-truth arrays (metadata only, no simulated
// cost): every occupied slab slot (main or spill) is bound to exactly
// the document whose metadata names it, every placed document names an
// occupied slot holding it — so no slot is claimed by two documents —
// each node's LRU order holds exactly its occupied main slots, and each
// node's live spill claims are exactly its occupied spill slots. A
// violation is a lost or duplicated placement, the corruption class the
// install, spill and rebalance races must never produce.
func (t *Tier) Audit() error {
	if t.err != nil {
		return t.err
	}
	for n := range t.slotDoc {
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
		if t.spill != nil && t.spill.Live(n) != spilled {
			return fmt.Errorf("coopcache: tier audit: node %d has %d live spill claims but %d spill residents",
				n, t.spill.Live(n), spilled)
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
