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
}

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
			tails: tails, slotsOf: slotsOf}
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
	var idBuf [8]byte
	putU64(idBuf[:], me)
	if err := c.dev.Write(p, c.slotsOf[prev-1], dqnlSlotSize*lock+dqnlSuccOff, idBuf[:]); err != nil {
		return err
	}
	grantOff := dqnlSlotSize*lock + dqnlGrantOff
	for {
		if c.slots.Uint64At(grantOff) != 0 {
			c.slots.PutUint64At(grantOff, 0)
			return nil
		}
		p.Sleep(PollInterval)
	}
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
	succOff := dqnlSlotSize*lock + dqnlSuccOff
	var succ uint64
	for {
		if s := c.slots.Uint64At(succOff); s != 0 {
			succ = s
			c.slots.PutUint64At(succOff, 0)
			break
		}
		p.Sleep(PollInterval)
	}
	var one [8]byte
	putU64(one[:], 1)
	return c.dev.Write(p, c.slotsOf[succ-1], dqnlSlotSize*lock+dqnlGrantOff, one[:])
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
