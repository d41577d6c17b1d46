package dlm

import (
	"fmt"

	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// SRSL: Send/Receive-based Server Locking. Each lock's home node runs a
// server process that owns the lock state; clients interact with it purely
// through two-sided messages. Every operation therefore costs two message
// hops plus server CPU, and grant cascades are serialized through the
// server — the costs the one-sided designs remove.

// srslDenied flags a refused TryLock in a grant message's arg.
const srslDenied = 1 << 8

// srslClientImpl is a node's client and, for the locks homed on the
// node, their server: each such lock's queue lives in its record.
type srslClientImpl struct {
	m   *Manager
	dev *verbs.Device
	lockTable
	// granted is the scratch slice a release's grants are collected in.
	granted []Waiter[int]
}

func newSRSL(m *Manager) {
	for _, node := range m.nodes {
		env := node.Env()
		dev := m.nw.Attach(node)
		c := &srslClientImpl{m: m, dev: dev, lockTable: newLockTable(node.Name+"/srsl", m.locks)}
		m.clients[node.ID] = c
		m.homeQ[node.ID], m.grantQ[node.ID] = dev.Bind("srsl"), dev.BindHandler(c.onGrant)
		env.GoDaemon(fmt.Sprintf("%s/srsl-server", node.Name), c.serveHome)
	}
}

// serveHome is the home-node lock server loop: the one dlm process, since
// its per-message CPU charge is the server cost SRSL exists to show.
func (c *srslClientImpl) serveHome(p *sim.Proc) {
	rq := c.m.homeQ[c.dev.Node.ID]
	for {
		msg := rq.Recv(p)
		// The server is an ordinary process: each request costs CPU and
		// competes with whatever else runs on the home node.
		c.dev.Node.Exec(p, ServerCPU)
		w := decodeWire(msg.Data)
		msg.Release()
		q := &c.recs[w.lock].queue
		excl := Mode(w.arg) == Exclusive
		switch w.op {
		case opLockReq:
			if q.Acquire(w.from, excl) {
				c.sendGrant(p, w.lock, w.from, w.arg)
			}
		case opTryLockReq:
			// Non-blocking: grant or deny immediately, never queue. The
			// verdict rides in the grant's arg (mode | denied bit).
			arg := w.arg
			if !q.TryAcquire(excl) {
				arg |= srslDenied
			}
			c.sendGrant(p, w.lock, w.from, arg)
		case opUnlockReq:
			// Each queued grant costs server CPU and a message: the
			// cascade is serialized through this loop.
			c.granted = q.Release(excl, c.granted[:0])
			for _, g := range c.granted {
				mode := Shared
				if g.Excl {
					mode = Exclusive
				}
				c.dev.Node.Exec(p, ServerCPU)
				c.sendGrant(p, w.lock, g.Who, int(mode))
			}
		}
	}
}

// sendGrant sends a grant or a TryLock verdict; one whose send fails is
// dropped, as N-CoSED's home agent drops its grants.
func (c *srslClientImpl) sendGrant(p *sim.Proc, lock, to, arg int) {
	_ = sendWire(p, c.dev, c.m.grantQ[to], wire{op: opGrant, lock: lock, from: c.dev.Node.ID, arg: arg})
}

// onGrant resolves a grant or a TryLock verdict at its delivery instant.
func (c *srslClientImpl) onGrant(msg verbs.Message) {
	w := decodeWire(msg.Data)
	msg.Release()
	if w.op == opGrant {
		c.grant(c.dev.Env(), w.lock, w.arg)
	}
}

// Lock implements Client.
func (c *srslClientImpl) Lock(p *sim.Proc, lock int, mode Mode) error {
	c.m.checkLock(lock)
	req := wire{op: opLockReq, lock: lock, from: c.dev.Node.ID, arg: int(mode)}
	_, err := c.request(p, c.dev, c.m.homeQueue(lock), req)
	return err
}

// TryLock implements Client: one round trip to the server, which grants
// or denies without queueing.
func (c *srslClientImpl) TryLock(p *sim.Proc, lock int, mode Mode) (bool, error) {
	c.m.checkLock(lock)
	req := wire{op: opTryLockReq, lock: lock, from: c.dev.Node.ID, arg: int(mode)}
	verdict, err := c.request(p, c.dev, c.m.homeQueue(lock), req)
	return err == nil && verdict&srslDenied == 0, err
}

// Unlock implements Client.
func (c *srslClientImpl) Unlock(p *sim.Proc, lock int, mode Mode) error {
	c.m.checkLock(lock)
	req := wire{op: opUnlockReq, lock: lock, from: c.dev.Node.ID, arg: int(mode)}
	return sendWire(p, c.dev, c.m.homeQueue(lock), req)
}
