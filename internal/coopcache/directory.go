package coopcache

// Sharded RDMA-readable directory. The classic DataCenter keeps its
// directory as a holder bitset per document, updated when its batched
// atomics land, whose wire cost is charged by the request chains — fine
// at testbed scale, but a web-scale cluster needs
// the directory itself to be remotely operable state: document →
// placement slots packed into registered memory regions, sharded across
// a set of home nodes, read with RDMA read and installed with
// compare-and-swap — the paper's "RDMA-based directory lookup delivers
// lookup latency resilient to server load" design carried to cluster
// scale.
//
// Every directory word carries the full placement — holder node AND the
// slab slot the copy lives in — so a hit needs exactly one directory
// read plus one slab read, and invalidation is a single CAS of the
// exact observed word: a Clear races safely against concurrent
// republishes because a stale word never compares equal (the slot bits
// disambiguate re-installs of the same document at a new slab slot).
//
// Addressing is bucketed: documents hash into buckets (doc % buckets)
// and an indirection table maps each bucket to its current (shard,
// region position). NewDirectory gives every shard one bucket and no
// spare position, which is plain interleaving (word doc/shards on shard
// doc % shards), fixed for the run. With several buckets and slack
// positions per shard (the rebalancing tier) the table is the lever
// hotspot-aware rebalancing pulls: a periodic tick migrates the hottest
// shard's buckets to the least-loaded host, or — when one bucket alone
// carries the skew — splits it by replicating its words read-only to
// extra hosts, spreading lookups across replicas. Every op captures the
// epoch counter before issuing; a migration bumps it, and the op
// re-validates afterwards (retrying once at the new home or undoing a
// word installed at a quarantined position), so in-flight operations
// stay safe without locks. Freed positions are quarantined — never
// reused — so a straggler CAS can corrupt nothing.
//
// Per-shard read/CAS load lives in plain counters updated as ops are
// issued — modeling the target HCA counting operations against its own
// region, so the accounting adds no wire traffic and no simulated time.

import (
	"encoding/binary"

	"ngdc/internal/cluster"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// Entry is one packed directory word: the holder node ID (+1, so a zero
// word means "no entry") in the low 32 bits and the holder's slab slot
// index in the high 32 bits.
type Entry uint64

// maxSlotStamp is the widest slot stamp a directory word can carry.
// Slots at or beyond it saturate rather than wrap: a wrapped stamp
// would alias a live low slot and reopen the ABA race the stamp exists
// to close, while a saturated stamp only ever collides with other
// saturated stamps — and no real slab has 2^32 slots.
const maxSlotStamp = 1<<32 - 1

// PackEntry builds the directory word for a copy of a document held at
// slab slot `slot` of cache node `holder`. The holder must fit the
// 32-bit holder field (it is a node index, so an overflow is a caller
// bug); the slot saturates at maxSlotStamp.
func PackEntry(holder, slot int) Entry {
	if holder < 0 || uint64(holder) >= maxSlotStamp {
		panic("coopcache: PackEntry holder out of range")
	}
	if slot < 0 {
		panic("coopcache: PackEntry negative slot")
	}
	s := uint64(slot)
	if s > maxSlotStamp {
		s = maxSlotStamp
	}
	return Entry(s<<32 | uint64(holder) + 1)
}

// Holder returns the holder node ID.
func (e Entry) Holder() int { return int(uint32(e)) - 1 }

// Slot returns the holder-local slab slot index.
func (e Entry) Slot() int { return int(e >> 32) }

// maxReplicas caps how many extra hosts one bucket can split across.
const maxReplicas = 8

// Directory is a sharded document→placement map in registered memory.
type Directory struct {
	shards []verbs.RemoteAddr
	bufs   [][]byte // registered backing memory, for zero-cost audits
	docs   int

	// loadOps counts one-sided reads+CASes landing on each shard host
	// over the whole run — the imbalance measurement (LoadMaxOverMean).
	loadOps []int64

	buckets     int
	bucketWords int
	assign      []int32   // bucket → primary shard host
	pos         []int32   // bucket → region position on that host
	freePos     [][]int32 // per shard: spare positions (stack)
	repHost     []int32   // bucket*maxReplicas + i → replica host
	repPos      []int32   // parallel replica positions
	repCount    []int32   // bucket → live replica count
	winShard    []int64   // per-shard load since the last tick
	winBucket   []int64   // per-bucket load since the last tick
	drain       []byte    // migration/split scratch, one bucket region
	epoch       uint32    // bumped on every assignment/replica change
	migrations  int64
	splits      int64
	tickSkips   int64 // control-plane ops degraded by unreachable hosts
	// opFree recycles the records of blocking Publish and Clear calls.
	opFree []*dirOp
}

// NewDirectory registers one directory shard on each home node, sized
// for the given working set, with fixed interleaved addressing. Shard
// memory is registered at setup (before the clock matters).
func NewDirectory(nw *verbs.Network, homes []*cluster.Node, docs int) *Directory {
	return newDirectory(nw, homes, docs, 1, 0)
}

// newDirectory builds a directory with perShard initial buckets homed on
// each shard plus slack spare bucket positions per shard region, the
// headroom migrations and splits move into. Freed positions are
// quarantined, so slack also bounds the total inbound migrations+splits
// per shard.
func newDirectory(nw *verbs.Network, homes []*cluster.Node, docs, perShard, slack int) *Directory {
	if len(homes) == 0 || docs <= 0 {
		panic("coopcache: directory needs homes and docs")
	}
	buckets := len(homes) * perShard
	d := &Directory{
		shards:      make([]verbs.RemoteAddr, len(homes)),
		bufs:        make([][]byte, len(homes)),
		docs:        docs,
		loadOps:     make([]int64, len(homes)),
		buckets:     buckets,
		bucketWords: (docs + buckets - 1) / buckets,
		assign:      make([]int32, buckets),
		pos:         make([]int32, buckets),
		freePos:     make([][]int32, len(homes)),
		repHost:     make([]int32, buckets*maxReplicas),
		repPos:      make([]int32, buckets*maxReplicas),
		repCount:    make([]int32, buckets),
		winShard:    make([]int64, len(homes)),
		winBucket:   make([]int64, buckets),
	}
	d.drain = make([]byte, d.bucketWords*8)
	for b := range d.assign {
		d.assign[b] = int32(b % len(homes))
		d.pos[b] = int32(b / len(homes))
	}
	for i, n := range homes {
		fp := make([]int32, slack)
		for j := range fp {
			fp[j] = int32(perShard + slack - 1 - j) // pop lowest first
		}
		d.freePos[i] = fp
		buf := make([]byte, (perShard+slack)*d.bucketWords*8)
		d.bufs[i] = buf
		d.shards[i] = nw.Attach(n).RegisterAtSetup(buf).Addr()
	}
	return d
}

// HomeShard returns the shard index currently serving doc's word (the
// node index within the homes slice the constructor was given).
func (d *Directory) HomeShard(doc int) int {
	return int(d.assign[doc%d.buckets])
}

// locate resolves a document to its primary shard host and byte offset.
func (d *Directory) locate(doc int) (host, off int) {
	b := doc % d.buckets
	return int(d.assign[b]), (int(d.pos[b])*d.bucketWords + doc/d.buckets) * 8
}

// locateRead resolves the copy a read from the given requester should
// use: the primary, or — for a split bucket — one of its replicas,
// chosen by requester identity so a hot bucket's lookups spread across
// all hosts deterministically.
func (d *Directory) locateRead(doc, requester int) (host, off int) {
	b := doc % d.buckets
	w := doc / d.buckets
	if n := int(d.repCount[b]); n > 0 {
		if idx := requester % (n + 1); idx > 0 {
			ri := b*maxReplicas + idx - 1
			return int(d.repHost[ri]), (int(d.repPos[ri])*d.bucketWords + w) * 8
		}
	}
	return int(d.assign[b]), (int(d.pos[b])*d.bucketWords + w) * 8
}

// note records one datapath op landing on a shard host.
func (d *Directory) note(host, doc int) {
	d.loadOps[host]++
	d.winShard[host]++
	d.winBucket[doc%d.buckets]++
}

// Lookup resolves doc's placement with a one-sided read issued from dev.
// scratch must be at least 8 bytes (caller-owned, so a steady-state
// lookup loop allocates nothing). A zero Entry means no copy is
// registered. An empty read that raced a bucket migration retries once
// at the new home.
func (d *Directory) Lookup(p *sim.Proc, dev *verbs.Device, doc int, scratch []byte) (Entry, error) {
	for attempt := 0; ; attempt++ {
		ep := d.epoch
		target, off := d.lookupTarget(doc, dev.Node.ID)
		if err := dev.Read(p, scratch[:8], target, off); err != nil {
			return 0, err
		}
		e := Entry(binary.LittleEndian.Uint64(scratch))
		if !d.retryLookup(e, ep, attempt) {
			return e, nil
		}
	}
}

// lookupTarget resolves the word a lookup of doc from the given requester
// reads, and accounts the read. Lookup and the tier's Get chain are built
// from it and retryLookup, so both read the same word and retry on the
// same condition.
func (d *Directory) lookupTarget(doc, requester int) (verbs.RemoteAddr, int) {
	h, off := d.locateRead(doc, requester)
	d.note(h, doc)
	return d.shards[h], off
}

// retryLookup reports whether a lookup that read e, issued under epoch
// ep with attempt re-issues behind it, goes round again: an empty read
// that raced a bucket migration, once.
func (d *Directory) retryLookup(e Entry, ep uint32, attempt int) bool {
	return e == 0 && d.epoch != ep && attempt == 0
}

// Publish installs e as doc's placement with a compare-and-swap against
// an empty word. won reports whether this caller's install took effect
// (a concurrent publisher may have won the race — the directory keeps
// the first — or a stale entry may still occupy the word; the loser
// must roll back its local install). A win that raced a bucket
// migration is undone — the word landed at a quarantined position — and
// reported as a loss.
func (d *Directory) Publish(p *sim.Proc, dev *verbs.Device, doc int, e Entry) (won bool, err error) {
	op := d.await(p, dirPublish, dev, doc, 0, e)
	won, err = op.won, op.err
	d.putOp(op)
	return won, err
}

// Clear removes doc's entry if the word still equals e (CAS e → 0) —
// the eviction/invalidation path. A Clear racing a republish loses
// cleanly: the new word no longer matches the observed one. A loss that
// raced a bucket migration retries once at the new home (the word may
// have been drained there before our CAS landed).
func (d *Directory) Clear(p *sim.Proc, dev *verbs.Device, doc int, e Entry) (cleared bool, err error) {
	op := d.await(p, dirClear, dev, doc, e, 0)
	cleared, err = op.won, op.err
	d.putOp(op)
	return cleared, err
}

// await runs one mutation on a pooled record with p parked once; the
// caller reads the result and returns the record.
func (d *Directory) await(p *sim.Proc, kind dirKind, dev *verbs.Device, doc int, old, new Entry) *dirOp {
	var op *dirOp
	if n := len(d.opFree); n > 0 {
		op = d.opFree[n-1]
		d.opFree = d.opFree[:n-1]
	} else {
		op = &dirOp{}
		op.waitFn = op.await.Done
	}
	d.mutate(op, kind, dev, doc, old, new, op.waitFn)
	op.await.Wait(p, parkDirectory)
	return op
}

func (d *Directory) putOp(op *dirOp) { d.opFree = append(d.opFree, op) }

const parkDirectory = "directory cas"

// dirKind is which directory mutation a dirOp runs.
type dirKind uint8

const (
	dirPublish dirKind = iota // CAS 0 → new
	dirClear                  // CAS old → 0
	// dirRedirect is the cooperative-spill demotion's CAS old → new: the
	// victim's word moves from the evictor's slot to the spill slot
	// without passing through the empty state, so a concurrent lookup sees
	// either the old copy or the new one, never a gap. A redirect that
	// lost against prev == new knows a concurrent refresher published the
	// identical placement.
	dirRedirect
)

// dirStep is the CAS a dirOp is waiting on.
type dirStep uint8

const (
	stepPrimary dirStep = iota // at the word's home when the op began
	stepRetry                  // a loss that raced a migration, at the new home
	stepUndo                   // a win that landed at a quarantined position
	stepReplica                // replica ri of the word's bucket
)

// dirOp is one directory mutation — a publish, a clear or a redirect —
// run as an event chain: every CAS is issued into the record's handler
// CQ and the next step runs at its completion, at the instant, and with
// the event sequence number, at which the blocking CAS call it replaces
// returned. The word is CASed from old to new (Publish: 0 → e; Clear:
// e → 0; a redirect: old → new). At the end then runs, a tail call, and
// the result is in won (Clear: cleared), prev and err. The cache tier's
// chains embed one each; the blocking Publish and Clear take one from
// the directory's free list.
type dirOp struct {
	d        *Directory
	dev      *verbs.Device
	kind     dirKind
	step     dirStep
	doc      int
	old, new Entry
	ep       uint32 // epoch the op began under
	h, off   int    // the word CASed last (primary or retry)
	// The replica walk: CAS rcmp → rswp on replicas 0..rn-1.
	rcmp, rswp uint64
	ri, rn     int

	won  bool
	prev Entry
	err  error
	then func()
	cq   *verbs.CQ

	// The blocking methods' wait.
	await  sim.Await
	waitFn func()
}

// mutate starts kind on op: the primary CAS, issued now.
func (d *Directory) mutate(op *dirOp, kind dirKind, dev *verbs.Device, doc int, old, new Entry, then func()) {
	if op.cq == nil {
		op.cq = verbs.HandlerCQ(op.casDone)
	}
	op.d, op.dev, op.kind, op.doc, op.old, op.new, op.then = d, dev, kind, doc, old, new, then
	op.won, op.prev, op.err = false, 0, nil
	op.ep = d.epoch
	op.h, op.off = d.locate(doc)
	d.note(op.h, doc)
	op.cas(stepPrimary, op.h, op.off, uint64(old), uint64(new))
}

func (op *dirOp) cas(step dirStep, h, off int, cmp, swp uint64) {
	op.step = step
	op.dev.Issue(op.cq, verbs.WR{Op: verbs.OpCAS, Target: op.d.shards[h], Off: off, Compare: cmp, Swap: swp})
}

// casDone runs at each CAS's completion instant (inside the issuing step
// if the CAS failed validation).
func (op *dirOp) casDone(c verbs.Completion) {
	d := op.d
	switch op.step {
	case stepPrimary, stepRetry:
		if c.Err != nil {
			op.finish(false, 0, c.Err)
			return
		}
		op.prev = Entry(c.Old)
		op.won = op.prev == op.old
		if !op.won && op.step == stepPrimary && op.kind != dirPublish && d.epoch != op.ep {
			if nh, noff := d.locate(op.doc); nh != op.h || noff != op.off {
				d.note(nh, op.doc)
				op.h, op.off = nh, noff
				op.cas(stepRetry, nh, noff, uint64(op.old), uint64(op.new))
				return
			}
		}
		op.settle()
	case stepUndo:
		if c.Err != nil && faultOf(c.Err) == faultNone {
			op.finish(false, 0, c.Err)
			return
		}
		op.finish(false, op.prev, nil)
	case stepReplica:
		if c.Err != nil && faultOf(c.Err) == faultNone {
			op.finish(op.won, op.prev, c.Err)
			return
		}
		op.ri++
		op.nextReplica()
	}
}

// settle runs once the word's CAS has landed. A won Publish or Redirect
// whose bucket moved after the CAS left the new word at a quarantined
// position no lookup will visit: undo it and report a loss. A lost
// Publish is done. Otherwise the bucket's replicas follow, best-effort:
// the new word where the primary now holds it; after a lost Redirect,
// the observed-stale old word is scrubbed rather than swung to a
// placement the caller will undo; a Clear's replica copies of e go
// regardless of who cleared the primary, since a lingering replica word
// would keep serving a dead placement.
func (op *dirOp) settle() {
	d := op.d
	if op.won && op.kind != dirClear {
		if nh, noff := d.locate(op.doc); nh != op.h || noff != op.off {
			d.note(op.h, op.doc)
			op.cas(stepUndo, op.h, op.off, uint64(op.new), 0)
			return
		}
	}
	if !op.won && op.kind == dirPublish {
		op.finish(false, 0, nil)
		return
	}
	op.rcmp, op.rswp = uint64(op.old), uint64(op.new)
	if !op.won && op.kind == dirRedirect {
		op.rswp = 0
	}
	op.ri, op.rn = 0, int(d.repCount[op.doc%d.buckets])
	op.nextReplica()
}

// nextReplica CASes replica ri of doc's word; an unreachable replica host
// is skipped (its stale word self-heals through slab validation on the
// reader side).
func (op *dirOp) nextReplica() {
	if op.ri == op.rn {
		op.finish(op.won, op.prev, nil)
		return
	}
	d := op.d
	ri := op.doc%d.buckets*maxReplicas + op.ri
	h := int(d.repHost[ri])
	d.note(h, op.doc)
	op.step = stepReplica
	op.dev.Issue(op.cq, verbs.WR{Op: verbs.OpCAS, Target: d.shards[h],
		Off: (int(d.repPos[ri])*d.bucketWords + op.doc/d.buckets) * 8, Compare: op.rcmp, Swap: op.rswp})
}

// finish records the result and makes the chain's tail call.
func (op *dirOp) finish(won bool, prev Entry, err error) {
	op.won, op.prev, op.err = won, prev, err
	op.then()
}

// RebalanceTick is one control-plane pass of hotspot-aware shard
// rebalancing, run on a periodic virtual-time tick: read the load
// window, and if the hottest shard carries at least twice the mean,
// either split the bucket responsible (replicate its words to a spare
// host, spreading its reads) or migrate the hottest unsplit bucket to
// the least-loaded host (flip the assignment, then drain: republish
// every live word at the new home and clear it at the old). Unreachable
// hosts degrade the pass to a no-op; the window resets either way.
func (d *Directory) RebalanceTick(p *sim.Proc, dev *verbs.Device) error {
	var total, maxLoad int64
	src := -1
	for s, v := range d.winShard {
		total += v
		if v > maxLoad {
			maxLoad, src = v, s
		}
	}
	if total == 0 {
		return nil
	}
	defer d.resetWindow()
	mean := total / int64(len(d.shards))
	if src < 0 || maxLoad < 2*mean || maxLoad < 16 {
		return nil // flat enough, or too few ops to act on
	}
	hot, hotLoad := -1, int64(0)
	hotUnsplit, hotUnsplitLoad := -1, int64(0)
	for b := 0; b < d.buckets; b++ {
		if int(d.assign[b]) != src {
			continue
		}
		if d.winBucket[b] > hotLoad {
			hot, hotLoad = b, d.winBucket[b]
		}
		if d.repCount[b] == 0 && d.winBucket[b] > hotUnsplitLoad {
			hotUnsplit, hotUnsplitLoad = b, d.winBucket[b]
		}
	}
	if hot < 0 {
		return nil
	}
	// Split when even a fair share of the hot bucket would keep its
	// hosts above the mean — a bucket migration could only shuffle
	// around; otherwise migrate the hottest unsplit bucket away.
	if hotLoad/int64(d.repCount[hot]+1) > mean && int(d.repCount[hot]) < maxReplicas {
		if dst := d.pickTarget(src, hot); dst >= 0 {
			return d.split(p, dev, hot, dst)
		}
	}
	if hotUnsplit >= 0 {
		if dst := d.pickTarget(src, -1); dst >= 0 {
			return d.migrate(p, dev, hotUnsplit, dst)
		}
	}
	return nil
}

// pickTarget returns the least-loaded shard with a spare bucket
// position, excluding src and (when avoid ≥ 0) every current host of
// bucket avoid; -1 when none qualifies.
func (d *Directory) pickTarget(src, avoid int) int {
	best, bestLoad := -1, int64(0)
	for s := range d.shards {
		if s == src || len(d.freePos[s]) == 0 {
			continue
		}
		if avoid >= 0 && d.hostsBucket(avoid, s) {
			continue
		}
		if best < 0 || d.winShard[s] < bestLoad {
			best, bestLoad = s, d.winShard[s]
		}
	}
	return best
}

func (d *Directory) hostsBucket(b, s int) bool {
	if int(d.assign[b]) == s {
		return true
	}
	for i := 0; i < int(d.repCount[b]); i++ {
		if int(d.repHost[b*maxReplicas+i]) == s {
			return true
		}
	}
	return false
}

func (d *Directory) popPos(s int) int32 {
	fp := d.freePos[s]
	np := fp[len(fp)-1]
	d.freePos[s] = fp[:len(fp)-1]
	return np
}

// migrate moves bucket b to shard dst. The assignment flips at this
// decision instant — new operations resolve to the new home immediately,
// in-flight ones re-validate against the epoch bump — then the drain
// republishes every live word at the new home and clears it at the old.
// The old position is quarantined (never returned to the free list), so
// an operation that captured it before the flip lands on dead memory,
// not on an unrelated bucket.
func (d *Directory) migrate(p *sim.Proc, dev *verbs.Device, b, dst int) error {
	srcH, srcPos := int(d.assign[b]), int(d.pos[b])
	np := d.popPos(dst)
	d.assign[b], d.pos[b] = int32(dst), np
	d.epoch++
	d.migrations++
	base := srcPos * d.bucketWords * 8
	if err := dev.Read(p, d.drain, d.shards[srcH], base); err != nil {
		return d.degrade(err)
	}
	for i := 0; i < d.bucketWords; i++ {
		w := binary.LittleEndian.Uint64(d.drain[i*8:])
		if w == 0 {
			continue
		}
		// Either we install w at the new home or a fresh publish beat
		// us there — both leave a single live word.
		if _, err := dev.CompareSwap(p, d.shards[dst], (int(np)*d.bucketWords+i)*8, 0, w); err != nil {
			return d.degrade(err)
		}
		if _, err := dev.CompareSwap(p, d.shards[srcH], base+i*8, w, 0); err != nil {
			return d.degrade(err)
		}
	}
	return nil
}

// split replicates bucket b onto shard dst: readers start picking the
// replica at this decision instant, and the seed copy fills in behind
// them (a not-yet-seeded replica word just reads as a miss).
func (d *Directory) split(p *sim.Proc, dev *verbs.Device, b, dst int) error {
	np := d.popPos(dst)
	ri := b*maxReplicas + int(d.repCount[b])
	d.repHost[ri], d.repPos[ri] = int32(dst), np
	d.repCount[b]++
	d.epoch++
	d.splits++
	srcH, srcPos := int(d.assign[b]), int(d.pos[b])
	if err := dev.Read(p, d.drain, d.shards[srcH], srcPos*d.bucketWords*8); err != nil {
		return d.degrade(err)
	}
	for w := 0; w < d.bucketWords; w++ {
		v := binary.LittleEndian.Uint64(d.drain[w*8:])
		if v == 0 {
			continue
		}
		if _, err := dev.CompareSwap(p, d.shards[dst], (int(np)*d.bucketWords+w)*8, 0, v); err != nil {
			return d.degrade(err)
		}
	}
	return nil
}

// degrade absorbs unreachable-host failures on the control plane — the
// tick just gives up this round — and surfaces everything else.
func (d *Directory) degrade(err error) error {
	if faultOf(err) != faultNone {
		d.tickSkips++
		return nil
	}
	return err
}

func (d *Directory) resetWindow() {
	for i := range d.winShard {
		d.winShard[i] = 0
	}
	for i := range d.winBucket {
		d.winBucket[i] = 0
	}
}

// LoadMaxOverMean returns the per-shard load imbalance over the whole
// run: the hottest shard's read+CAS count over the mean (0 before any
// traffic).
func (d *Directory) LoadMaxOverMean() float64 {
	var total, max int64
	for _, v := range d.loadOps {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(d.loadOps)) / float64(total)
}

// Migrations returns how many bucket migrations have run.
func (d *Directory) Migrations() int64 { return d.migrations }

// Splits returns how many bucket splits have run.
func (d *Directory) Splits() int64 { return d.splits }

// TickSkips returns how many control-plane ops degraded against
// unreachable hosts.
func (d *Directory) TickSkips() int64 { return d.tickSkips }

// DebugPlacements invokes fn for every nonzero directory word reachable
// through the current addressing — each document's primary word plus
// any replica copies. It inspects the registered backing memory
// directly (zero simulated cost); audit/test use only.
func (d *Directory) DebugPlacements(fn func(doc int, e Entry, replica bool)) {
	for doc := 0; doc < d.docs; doc++ {
		h, off := d.locate(doc)
		if w := binary.LittleEndian.Uint64(d.bufs[h][off:]); w != 0 {
			fn(doc, Entry(w), false)
		}
		b := doc % d.buckets
		wi := doc / d.buckets
		for i := 0; i < int(d.repCount[b]); i++ {
			ri := b*maxReplicas + i
			roff := (int(d.repPos[ri])*d.bucketWords + wi) * 8
			if v := binary.LittleEndian.Uint64(d.bufs[int(d.repHost[ri])][roff:]); v != 0 {
				fn(doc, Entry(v), true)
			}
		}
	}
}
