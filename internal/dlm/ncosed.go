package dlm

import (
	"fmt"
	"time"

	"ngdc/internal/faults"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// N-CoSED: network-based combined shared/exclusive distributed locking,
// the paper's design. Each lock is one 64-bit word at its home node:
//
//	[ exclusive-queue tail : 32 ][ shared-holder count : 32 ]
//
// Fast paths are entirely one-sided:
//
//   - shared lock    = fetch-and-add(+1); granted if the tail half is 0
//   - shared unlock  = fetch-and-add(-1)
//   - exclusive lock = compare-and-swap installing us as tail; granted if
//     the word was (0, 0)
//   - exclusive unlock = compare-and-swap back to (0, 0)
//
// Contended hand-offs use short messages: an exclusive requester that
// displaced a previous tail enqueues behind it peer-to-peer; one that
// found shared holders asks the home agent to grant it when the count
// drains; shared requesters that found an exclusive chain undo their
// increment and register with the home agent, which grants the whole
// cohort in one burst when the chain drains — the property that keeps the
// shared-cascade latency of Fig 5a flat.

func ncWord(tail uint64, cnt uint64) uint64 { return tail<<32 | cnt&0xffffffff }
func ncTail(w uint64) uint64                { return w >> 32 }
func ncCnt(w uint64) uint64                 { return w & 0xffffffff }

// ncosedLease is the home agent's lease record for one lock (LeaseTTL >
// 0 only): who holds it exclusively, until when the home trusts that
// holder, and which queued successors have announced themselves.
type ncosedLease struct {
	holder   int // current exclusive holder's node ID, -1 when none known
	deadline sim.Time
	armed    bool  // a lease-expiry check is scheduled
	succOf   []int // by predecessor node ID: its announced queue successor, -1 if none
}

type ncosedClientImpl struct {
	m   *Manager
	dev *verbs.Device

	// tails holds the home lock words for locks homed on this node;
	// words[l] is lock l's word, wherever it is homed.
	tails *verbs.MR
	words []verbs.RemoteAddr
	lockTable
	inj *faults.Injector // LeaseTTL > 0 only
}

func newNCoSED(m *Manager) {
	clients := make([]*ncosedClientImpl, len(m.nodes))
	for i, node := range m.nodes {
		dev := m.nw.Attach(node)
		env := node.Env()
		c := &ncosedClientImpl{
			m:         m,
			dev:       dev,
			tails:     dev.RegisterAtSetup(make([]byte, 8*m.locks)),
			lockTable: newLockTable(node.Name+"/ncosed", m.locks),
		}
		for l := i; l < m.locks; l += len(m.nodes) { // the locks homed here
			r := &c.recs[l]
			r.look, r.sent = func() { c.look(l) }, func() { c.grantNext(l) }
			if m.leaseTTL > 0 {
				r.lease = &ncosedLease{holder: -1, succOf: make([]int, len(m.clients))}
				for n := range r.lease.succOf {
					r.lease.succOf[n] = -1
				}
			}
		}
		if m.leaseTTL > 0 {
			c.inj = faults.Of(env)
		}
		clients[i] = c
		m.clients[node.ID] = c
		m.homeQ[node.ID], m.grantQ[node.ID] = dev.BindHandler(c.onAgent), dev.BindHandler(c.onClient)
	}
	words := make([]verbs.RemoteAddr, m.locks)
	for l := range words {
		words[l] = clients[m.home(l)].tails.Addr()
	}
	for _, c := range clients {
		c.words = words
	}
}

// wordAddr returns the home word address of a lock.
func (c *ncosedClientImpl) wordAddr(lock int) (verbs.RemoteAddr, int) {
	return c.words[lock], 8 * lock
}

// onClient handles a grant or a successor announcement at its delivery
// instant.
func (c *ncosedClientImpl) onClient(msg verbs.Message) {
	w := decodeWire(msg.Data)
	msg.Release()
	switch w.op {
	case opGrant:
		c.grant(c.dev.Env(), w.lock, w.arg)
	case opEnqueue:
		if r := &c.recs[w.lock]; r.succWait {
			r.succWait = false
			r.resolve(c.dev.Env(), w.from)
		} else {
			r.succ = w.from + 1
		}
	}
}

// onAgent is the home-node agent, run at each request's delivery
// instant: it only participates in contended hand-offs (shared cohort
// grants and shared-drain waits) and, with leases on, in holder
// tracking.
func (c *ncosedClientImpl) onAgent(msg verbs.Message) {
	w := decodeWire(msg.Data)
	msg.Release()
	r := &c.recs[w.lock]
	switch w.op {
	case opSharedRegister:
		r.pendingShared = append(r.pendingShared, w.from)
		c.startPoll(r)
	case opWaitDrain:
		if r.pendingDrain != 0 {
			panic("dlm: ncosed: two drain waiters on one lock")
		}
		r.pendingDrain = w.from + 1
		c.startPoll(r)
	case opHolderNotify:
		c.leaseHolderNotify(w.lock, w.from)
	case opHolderRelease:
		if r.lease.holder == w.from {
			r.lease.holder = -1
		}
	case opEnqueueCC:
		r.lease.succOf[w.arg] = w.from
	}
}

// leaseHolderNotify records a new exclusive holder and (re)arms the
// lease-expiry check for its lock.
func (c *ncosedClientImpl) leaseHolderNotify(lock, holder int) {
	ls := c.recs[lock].lease
	for pred, s := range ls.succOf {
		if s == holder {
			// The hand-off to this holder consumed its queue edge.
			ls.succOf[pred] = -1
		}
	}
	ls.holder = holder
	env := c.dev.Env()
	ls.deadline = env.Now().Add(c.m.leaseTTL)
	if !ls.armed {
		ls.armed = true
		env.After(c.m.leaseTTL, func() { c.leaseCheck(lock) })
	}
}

// leaseCheck runs at lease-expiry instants (scheduler callback). A live
// holder implicitly renews — the lease interval only bounds how long the
// home can believe in a crashed holder before repairing the lock.
func (c *ncosedClientImpl) leaseCheck(lock int) {
	ls := c.recs[lock].lease
	ls.armed = false
	if ls.holder < 0 {
		return
	}
	env := c.dev.Env()
	if now := env.Now(); now < ls.deadline {
		ls.armed = true
		env.After(time.Duration(ls.deadline-now), func() { c.leaseCheck(lock) })
		return
	}
	if c.inj == nil || !c.inj.Down(ls.holder) {
		ls.deadline = env.Now().Add(c.m.leaseTTL)
		ls.armed = true
		env.After(c.m.leaseTTL, func() { c.leaseCheck(lock) })
		return
	}
	c.recoverLock(lock, ls)
}

// recoverLock repairs a lock whose exclusive holder crashed: the home
// agent hands the lock to the dead holder's announced queue successor,
// or — when the dead holder was the tail of the chain — clears the tail
// half of the word so new requests (and a parked shared cohort) proceed.
func (c *ncosedClientImpl) recoverLock(lock int, ls *ncosedLease) {
	dead := ls.holder
	off := 8 * lock
	w := c.tails.Uint64At(off)
	next := ls.succOf[dead]
	if next < 0 && ncTail(w) != uint64(dead+1) {
		// The word says the chain extends past the dead holder, but the
		// successor's announcement copy is still in flight. Postpone.
		ls.armed = true
		c.dev.Env().After(PollInterval, func() { c.leaseCheck(lock) })
		return
	}
	c.m.recoveries++
	ls.holder = -1
	if next >= 0 {
		ls.succOf[dead] = -1
		// Best-effort: the send only fails if the home itself is down,
		// and then the grant is moot anyway. The poller drops a failed
		// grant the same way.
		b := c.dev.GetBuf(msgSize)
		wire{op: opGrant, lock: lock, from: c.dev.Node.ID}.encodeInto(b)
		_ = c.dev.SendAsync(c.m.grantQ[next], b, nil)
		return // the successor's holder notification re-arms the lease
	}
	// The dead holder was the tail: reset the tail half, preserving any
	// shared-count transients. A shared cohort parked behind the gone
	// chain is admitted by its home poller, which looks for as long as
	// the cohort waits.
	c.tails.PutUint64At(off, ncWord(0, ncCnt(w)))
}

// notifyHolder tells the home agent we now hold the lock exclusively
// (lease protocol; no-op unless leases are enabled).
func (c *ncosedClientImpl) notifyHolder(p *sim.Proc, lock int) error {
	if c.m.leaseTTL <= 0 {
		return nil
	}
	w := wire{op: opHolderNotify, lock: lock, from: c.dev.Node.ID}
	return sendWire(p, c.dev, c.m.homeQueue(lock), w)
}

// releaseHolder tells the home agent we freed the lock with a single CAS
// (lease protocol; no-op unless leases are enabled). Hand-offs need no
// release: the successor's own notification supersedes us.
func (c *ncosedClientImpl) releaseHolder(p *sim.Proc, lock int) error {
	if c.m.leaseTTL <= 0 {
		return nil
	}
	w := wire{op: opHolderRelease, lock: lock, from: c.dev.Node.ID}
	return sendWire(p, c.dev, c.m.homeQueue(lock), w)
}

// startPoll starts the lock's home poller unless it runs. The poller is
// a timer chain on the lock's record: it watches the (local) lock word,
// sends the deferred grants and stops when nothing is pending. Its first
// look is an event at the current instant, where a spawned poller
// process would have started.
func (c *ncosedClientImpl) startPoll(r *lockRec) {
	if r.polling {
		return
	}
	r.polling = true
	c.dev.Env().After(0, r.look)
}

// look is one poll of the lock word: grant a drain waiter once the
// shared count is zero, or the whole shared cohort once the exclusive
// chain has drained; stop when nothing is pending, else look again
// PollInterval later.
func (c *ncosedClientImpl) look(lock int) {
	r := &c.recs[lock]
	off := 8 * lock
	w := c.tails.Uint64At(off)
	switch {
	case r.pendingDrain != 0 && ncCnt(w) == 0:
		r.granting = append(r.granting, r.pendingDrain-1)
		r.pendingDrain = 0
		c.grantNext(lock)
	case len(r.pendingShared) > 0 && ncTail(w) == 0:
		// Admit the whole cohort as holders in one local update, then
		// grant them back-to-back.
		c.tails.PutUint64At(off, ncWord(0, ncCnt(w)+uint64(len(r.pendingShared))))
		r.granting, r.pendingShared = r.pendingShared, nil
		c.grantNext(lock)
	case r.pendingDrain == 0 && len(r.pendingShared) == 0:
		r.polling = false
	default:
		c.dev.Env().After(PollInterval, r.look)
	}
}

// grantNext sends the poller's next deferred grant, continuing in the
// send's completion as a blocking send would return, and looks at the
// word again once none is left. A grant whose send fails is dropped, as
// recoverLock's is.
func (c *ncosedClientImpl) grantNext(lock int) {
	r := &c.recs[lock]
	for len(r.granting) > 0 {
		to := r.granting[0]
		r.granting = r.granting[1:]
		b := c.dev.GetBuf(msgSize)
		wire{op: opGrant, lock: lock, from: c.dev.Node.ID}.encodeInto(b)
		if c.dev.SendAsync(c.m.grantQ[to], b, r.sent) == nil {
			return
		}
	}
	c.look(lock)
}

// Lock implements Client.
func (c *ncosedClientImpl) Lock(p *sim.Proc, lock int, mode Mode) error {
	c.m.checkLock(lock)
	if mode == Shared {
		return c.lockShared(p, lock)
	}
	return c.lockExclusive(p, lock)
}

func (c *ncosedClientImpl) lockShared(p *sim.Proc, lock int) error {
	addr, off := c.wordAddr(lock)
	old, err := c.dev.FetchAdd(p, addr, off, 1)
	if err != nil || ncTail(old) == 0 {
		return err // no exclusive chain: we are a holder, purely one-sided
	}
	// An exclusive chain is active: undo our increment (the count must
	// reflect holders only, or drain detection breaks) and register with
	// the home agent for the cohort grant.
	if err := c.sharedDec(p, lock); err != nil {
		return err
	}
	reg := wire{op: opSharedRegister, lock: lock, from: c.dev.Node.ID}
	_, err = c.request(p, c.dev, c.m.homeQueue(lock), reg)
	return err
}

func (c *ncosedClientImpl) lockExclusive(p *sim.Proc, lock int) error {
	me := uint64(c.dev.Node.ID + 1)
	addr, off := c.wordAddr(lock)
	expect := uint64(0)
	var old uint64
	for {
		var err error
		old, err = c.dev.CompareSwap(p, addr, off, expect, ncWord(me, ncCnt(expect)))
		if err != nil {
			return err
		}
		if old == expect {
			break
		}
		expect = old
	}
	prevTail, cnt := ncTail(old), ncCnt(old)
	var err error
	switch {
	case prevTail == 0 && cnt == 0:
		// Free lock: acquired with a single CAS.
	case prevTail == 0:
		// Shared holders present: ask the home agent to grant us once the
		// count drains to zero.
		req := wire{op: opWaitDrain, lock: lock, from: c.dev.Node.ID}
		_, err = c.request(p, c.dev, c.m.homeQueue(lock), req)
	default:
		// Queue behind the previous tail, peer-to-peer. With leases on,
		// copy the announcement to the home agent so it can reconstruct
		// the queue if our predecessor dies holding the lock.
		if c.m.leaseTTL > 0 {
			cc := wire{op: opEnqueueCC, lock: lock, from: c.dev.Node.ID, arg: int(prevTail - 1)}
			if err := sendWire(p, c.dev, c.m.homeQueue(lock), cc); err != nil {
				return err
			}
		}
		enq := wire{op: opEnqueue, lock: lock, from: c.dev.Node.ID}
		_, err = c.request(p, c.dev, c.m.grantQ[prevTail-1], enq)
	}
	if err != nil {
		return err
	}
	return c.notifyHolder(p, lock)
}

// TryLock implements Client. Exclusive: one CAS on the free word.
// Shared: a fetch-and-add, undone if an exclusive chain is active —
// exactly the fast paths, with no registration on failure.
func (c *ncosedClientImpl) TryLock(p *sim.Proc, lock int, mode Mode) (bool, error) {
	c.m.checkLock(lock)
	addr, off := c.wordAddr(lock)
	if mode == Shared {
		old, err := c.dev.FetchAdd(p, addr, off, 1)
		if err != nil || ncTail(old) == 0 {
			return err == nil, err
		}
		return false, c.sharedDec(p, lock)
	}
	me := uint64(c.dev.Node.ID + 1)
	old, err := c.dev.CompareSwap(p, addr, off, 0, ncWord(me, 0))
	if err != nil || old != 0 {
		return false, err
	}
	return true, c.notifyHolder(p, lock)
}

// Unlock implements Client.
func (c *ncosedClientImpl) Unlock(p *sim.Proc, lock int, mode Mode) error {
	c.m.checkLock(lock)
	addr, off := c.wordAddr(lock)
	if mode == Shared {
		return c.sharedDec(p, lock)
	}
	me := uint64(c.dev.Node.ID + 1)
	grant := wire{op: opGrant, lock: lock, from: c.dev.Node.ID}
	r := &c.recs[lock]
	for {
		// If a successor already announced itself, hand over directly.
		if s := r.succ; s != 0 {
			r.succ = 0
			return sendWire(p, c.dev, c.m.grantQ[s-1], grant)
		}
		old, err := c.dev.CompareSwap(p, addr, off, ncWord(me, 0), 0)
		if err != nil {
			return err
		}
		if old == ncWord(me, 0) {
			return c.releaseHolder(p, lock) // freed with a single CAS
		}
		if ncTail(old) == me {
			// A shared requester's transient increment is in flight (it
			// will undo itself); retry shortly.
			p.Sleep(PollInterval)
			continue
		}
		// The tail moved past us: a successor exists and its announcement
		// is in flight. Wait for it, then hand over.
		if r.succ != 0 {
			continue // announcement landed while we were CASing
		}
		r.succWait = true
		return sendWire(p, c.dev, c.m.grantQ[r.wait(p)], grant)
	}
}

// sharedDec removes one shared count from the lock word: the release and
// undo paths' fetch-and-add(-1). The hazard of packing two halves into
// one atomic word is that a decrement when the count half is already
// zero borrows into the exclusive-tail half and silently corrupts the
// queue. Guard it: repair the word with a compensating increment, then
// fail loudly — an unbalanced shared unlock is a protocol bug.
func (c *ncosedClientImpl) sharedDec(p *sim.Proc, lock int) error {
	addr, off := c.wordAddr(lock)
	old, err := c.dev.FetchAdd(p, addr, off, ^uint64(0))
	if err != nil {
		return err
	}
	if ncCnt(old) == 0 {
		if _, err := c.dev.FetchAdd(p, addr, off, 1); err != nil {
			return err
		}
		panic(fmt.Sprintf("dlm: ncosed: shared-count underflow on lock %d (unbalanced shared unlock would corrupt the exclusive tail)", lock))
	}
	return nil
}
