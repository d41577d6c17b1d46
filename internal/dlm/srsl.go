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

const (
	srslService = "srsl"       // requests, served by the home server
	srslClient  = "srsl-grant" // grants, served by the client agent

	// srslDenied flags a refused TryLock in a grant message's arg.
	srslDenied = 1 << 8
)

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
		c := &srslClientImpl{m: m, dev: m.nw.Attach(node), lockTable: newLockTable(env, node.Name+"/srsl", m.locks)}
		m.clients[node.ID] = c
		env.GoDaemon(fmt.Sprintf("%s/srsl-server", node.Name), c.serveHome)
		env.GoDaemon(fmt.Sprintf("%s/srsl-client", node.Name), c.serveGrants)
	}
}

// serveHome is the home-node lock server loop.
func (c *srslClientImpl) serveHome(p *sim.Proc) {
	for {
		msg := c.dev.Recv(p, srslService)
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
	_ = sendWire(p, c.dev, to, srslClient, wire{op: opGrant, lock: lock, from: c.dev.Node.ID, arg: arg})
}

// serveGrants is the client-side grant dispatcher.
func (c *srslClientImpl) serveGrants(p *sim.Proc) {
	for {
		msg := c.dev.Recv(p, srslClient)
		w := decodeWire(msg.Data)
		msg.Release()
		if w.op == opGrant {
			c.grant(w.lock, w.arg)
		}
	}
}

// Lock implements Client.
func (c *srslClientImpl) Lock(p *sim.Proc, lock int, mode Mode) error {
	c.m.checkLock(lock)
	req := wire{op: opLockReq, lock: lock, from: c.dev.Node.ID, arg: int(mode)}
	_, err := c.request(p, c.dev, c.m.homeNodeID(lock), srslService, req)
	return err
}

// TryLock implements Client: one round trip to the server, which grants
// or denies without queueing.
func (c *srslClientImpl) TryLock(p *sim.Proc, lock int, mode Mode) (bool, error) {
	c.m.checkLock(lock)
	req := wire{op: opTryLockReq, lock: lock, from: c.dev.Node.ID, arg: int(mode)}
	verdict, err := c.request(p, c.dev, c.m.homeNodeID(lock), srslService, req)
	return err == nil && verdict&srslDenied == 0, err
}

// Unlock implements Client.
func (c *srslClientImpl) Unlock(p *sim.Proc, lock int, mode Mode) error {
	c.m.checkLock(lock)
	req := wire{op: opUnlockReq, lock: lock, from: c.dev.Node.ID, arg: int(mode)}
	return sendWire(p, c.dev, c.m.homeNodeID(lock), srslService, req)
}
