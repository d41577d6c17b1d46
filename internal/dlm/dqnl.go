package dlm

import (
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// DQNL: distributed queue-based non-shared locking. A per-lock tail word
// at the home node is manipulated with one-sided compare-and-swap to build
// an MCS-style distributed queue; lock hand-off is peer-to-peer through
// one-sided RDMA writes into the waiter's registered memory, which the
// waiter polls. There is no shared mode: every request — including reads —
// takes the queue exclusively, so a cohort of N readers pays N sequential
// hand-offs (the deficiency Fig 5a exposes).

// Per-node, per-lock slot layout in the locally registered region.
const (
	dqnlSlotSize = 16
	dqnlSuccOff  = 0 // successor announcement (written by our successor)
	dqnlGrantOff = 8 // grant flag (written by our predecessor)
)

type dqnlClientImpl struct {
	m   *Manager
	dev *verbs.Device

	// slots holds this node's waiter slots, dqnlSlotSize bytes per lock.
	slots *verbs.MR
	// tails[l] is the region holding lock l's tail word, 8 bytes per lock
	// on its home node; slotsOf[n] is node n's slots, by node ID. Both
	// are shared by every client.
	tails   []verbs.RemoteAddr
	slotsOf []verbs.RemoteAddr

	// recs[l] is what lock l's one outstanding call uses.
	recs []dqnlRec
}

// dqnlRec is one (client, lock) record: the source word of the call's
// one-sided write (an announcement or a grant) and its wait on a slot
// word — a timer callback that looks at the word every PollInterval and
// hands the CPU back to the parked caller in the event that finds it
// set. The tick is bound on the record's first wait and reused by every
// later one, so a lock or unlock allocates nothing.
type dqnlRec struct {
	word [8]byte

	c    *dqnlClientImpl
	p    *sim.Proc // the parked caller; nil when no wait is in progress
	off  int       // the polled word's offset in c.slots
	val  uint64    // the value the last wait found
	tick func()
}

// reasonPoll is what a caller waiting on a slot word is parked on.
const reasonPoll = "dqnl slot poll"

func newDQNL(m *Manager) {
	tails := make([]verbs.RemoteAddr, m.locks)
	slotsOf := make([]verbs.RemoteAddr, len(m.clients))
	for i, node := range m.nodes {
		dev := m.nw.Attach(node)
		home := dev.RegisterAtSetup(make([]byte, 8*m.locks)).Addr()
		for l := i; l < m.locks; l += len(m.nodes) { // the locks homed here
			tails[l] = home
		}
		c := &dqnlClientImpl{m: m, dev: dev, slots: dev.RegisterAtSetup(make([]byte, dqnlSlotSize*m.locks)),
			tails: tails, slotsOf: slotsOf, recs: make([]dqnlRec, m.locks)}
		slotsOf[node.ID] = c.slots.Addr()
		m.clients[node.ID] = c
	}
}

// Lock implements Client. The mode is accepted for interface parity but
// shared requests are serialized exactly like exclusive ones.
func (c *dqnlClientImpl) Lock(p *sim.Proc, lock int, mode Mode) error {
	c.m.checkLock(lock)
	me := uint64(c.dev.Node.ID + 1)
	addr, off := c.tails[lock], 8*lock

	// Atomically swap ourselves in as the queue tail via a CAS retry
	// loop (InfiniBand has no plain fetch-and-swap).
	var prev uint64
	expect := uint64(0)
	for {
		old, err := c.dev.CompareSwap(p, addr, off, expect, me)
		if err != nil {
			return err
		}
		if old == expect {
			prev = old
			break
		}
		expect = old
	}
	if prev == 0 {
		return nil // queue was empty: lock acquired one-sided
	}

	// Announce ourselves to the predecessor by writing our ID into its
	// successor slot, then poll our own grant flag until the predecessor
	// hands the lock over.
	w := &c.recs[lock]
	putU64(w.word[:], me)
	if err := c.dev.Write(p, c.slotsOf[prev-1], dqnlSlotSize*lock+dqnlSuccOff, w.word[:]); err != nil {
		return err
	}
	c.await(p, lock, dqnlSlotSize*lock+dqnlGrantOff)
	return nil
}

// TryLock implements Client: a single compare-and-swap; on failure no
// queue entry is created.
func (c *dqnlClientImpl) TryLock(p *sim.Proc, lock int, mode Mode) (bool, error) {
	c.m.checkLock(lock)
	me := uint64(c.dev.Node.ID + 1)
	addr, off := c.tails[lock], 8*lock
	old, err := c.dev.CompareSwap(p, addr, off, 0, me)
	return err == nil && old == 0, err
}

// Unlock implements Client.
func (c *dqnlClientImpl) Unlock(p *sim.Proc, lock int, mode Mode) error {
	c.m.checkLock(lock)
	me := uint64(c.dev.Node.ID + 1)
	addr, off := c.tails[lock], 8*lock

	// Fast path: if we are still the tail, free the lock with one CAS.
	old, err := c.dev.CompareSwap(p, addr, off, me, 0)
	if err != nil || old == me {
		return err
	}

	// A successor exists; it may still be writing its announcement. Poll
	// our successor slot, then hand the lock over with a one-sided write
	// of its grant flag.
	succ := c.await(p, lock, dqnlSlotSize*lock+dqnlSuccOff)
	w := &c.recs[lock]
	putU64(w.word[:], 1)
	return c.dev.Write(p, c.slotsOf[succ-1], dqnlSlotSize*lock+dqnlGrantOff, w.word[:])
}

// await polls the slot word at off, which lock's outstanding call waits
// on, until a peer's write sets it; it clears the word and returns the
// value found. The first look is inline. Each later one is a timer
// callback PollInterval after the last, sequenced where the caller's
// sleep between looks would have been, and the look that finds the word
// set resumes the caller inside its own event — the caller parks at
// most once per wait, however long it polls.
func (c *dqnlClientImpl) await(p *sim.Proc, lock, off int) uint64 {
	if v := c.slots.Uint64At(off); v != 0 {
		c.slots.PutUint64At(off, 0)
		return v
	}
	w := &c.recs[lock]
	if w.tick == nil {
		w.c, w.tick = c, w.look
	}
	w.p, w.off = p, off
	c.dev.Env().After(PollInterval, w.tick)
	p.Park(reasonPoll)
	return w.val
}

// look is one poll: re-arm while the word is clear, else take the value
// and continue the caller.
func (w *dqnlRec) look() {
	c := w.c
	v := c.slots.Uint64At(w.off)
	if v == 0 {
		c.dev.Env().After(PollInterval, w.tick)
		return
	}
	c.slots.PutUint64At(w.off, 0)
	p := w.p
	w.p, w.val = nil, v
	c.dev.Env().Continue(p)
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
