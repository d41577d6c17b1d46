package verbs

import (
	"fmt"
	"time"

	"ngdc/internal/faults"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// QP is one endpoint of a connected queue pair: the classic verbs object
// for two-sided messaging. Unlike the named service queues (which any
// node can send into), a QP's receive queue is private to its peer, and
// messages arrive in order. One-sided operations against the peer's
// registered memory remain available through the owning Device.
type QP struct {
	dev    *Device
	peer   *Device
	remote *QP
	rq     *sim.Chan[[]byte]
	// err marks the QP in the error state: its peer crashed or was
	// partitioned away. Further Sends fail with it and the receive
	// queues of both endpoints are flushed (parked Recvs return nil).
	err error
	// Sent and Received count messages, for instrumentation.
	Sent, Received int64
}

// ConnectQP creates a connected queue pair between two devices and
// returns both endpoints.
func ConnectQP(a, b *Device, depth int) (*QP, *QP) {
	if a.nw != b.nw {
		panic("verbs: cannot connect QPs across networks")
	}
	if depth <= 0 {
		depth = 128
	}
	a.nw.qpSeq++
	qpSeq := a.nw.qpSeq
	qa := &QP{dev: a, peer: b,
		rq: sim.NewChan[[]byte](a.nw.Env, fmt.Sprintf("%s/qp%d-rq", a.Node.Name, qpSeq), depth)}
	qb := &QP{dev: b, peer: a,
		rq: sim.NewChan[[]byte](b.nw.Env, fmt.Sprintf("%s/qp%d-rq", b.Node.Name, qpSeq), depth)}
	qa.remote, qb.remote = qb, qa
	a.nw.qps = append(a.nw.qps, qa, qb)
	// An explicit queue pair pins connection state on both endpoints
	// (transport.go): it never falls out of the pooled-mode LRU and is
	// the memoized endpoint QPTo returns.
	a.pinConn(b.Node.ID, qa)
	b.pinConn(a.Node.ID, qb)
	return qa, qb
}

// enterError moves both endpoints of the connection to the error state
// (like a real RC QP after a retry-exceeded or peer death): pending and
// future operations fail, and both receive queues are flushed so parked
// receivers wake with a nil message.
func (q *QP) enterError(reason string) {
	q.err = &OpError{Op: "qp", Target: RemoteAddr{Node: q.peer.Node.ID}, Reason: reason}
	if q.remote.err == nil {
		q.remote.err = &OpError{Op: "qp", Target: RemoteAddr{Node: q.dev.Node.ID}, Reason: reason}
	}
	if !q.rq.Closed() {
		q.rq.Close()
	}
	if !q.remote.rq.Closed() {
		q.remote.rq.Close()
	}
}

// Err returns the error that moved the QP to the error state, or nil
// while the connection is healthy.
func (q *QP) Err() error { return q.err }

// Send transmits data to the peer's receive queue. It blocks until the
// data is on the wire; delivery completes one base latency later. Data
// is copied into a pooled buffer; the receiver may return it with
// QP.Release after decoding.
//
// A QP rides a reliable connection: injected link loss is absorbed by
// (unmodelled) retransmission, but a crashed or partitioned peer moves
// the QP to the error state — Send then fails immediately, like a real
// RC QP flushing work after retry-exceeded.
func (q *QP) Send(p *sim.Proc, data []byte) error {
	if q.err != nil {
		return q.err
	}
	a, b := q.dev.Node.ID, q.peer.Node.ID
	f := q.dev.nw.flt
	if f != nil && !f.Reachable(a, b) {
		q.enterError("peer unreachable")
		return q.err
	}
	pp := q.dev.Params()
	buf := q.dev.pool.getBuf(len(data))
	copy(buf, data)
	start := q.dev.nw.Env.Now()
	q.dev.nic.AcquireTx(p, pp.IBMsgTxTime(len(data))+q.dev.connCost(b))
	q.Sent++
	q.dev.Sends++
	if q.dev.ts != nil {
		lat := time.Duration(q.dev.nw.Env.Now() - start)
		q.dev.ts.Send.Record(len(data), lat)
		q.dev.tr.RecordOp(trace.OpSend, pp.IBSendLatency+pp.IBMsgTxTime(len(data)), 0)
		q.dev.tr.Emit("verbs", "qp-send", q.dev.Node.ID, len(data), lat)
	}
	if f != nil && f.LinkDelay(a, b) > 0 {
		// Per-link delay bypasses the constant-latency delivery FIFO;
		// kept out of line so the healthy path avoids the closure escape.
		q.sendDelayed(f, buf, pp.IBSendLatency)
		return nil
	}
	q.dev.qpDelq.Push(qpDelivery{rq: q.remote.rq, buf: buf, from: a, to: b})
	q.dev.nw.Env.After(pp.IBSendLatency, q.dev.deliverQPFn)
	return nil
}

// sendDelayed schedules a QP delivery on a link with injected delay.
func (q *QP) sendDelayed(f *faults.Injector, buf []byte, base time.Duration) {
	f.NoteDelay()
	rq := q.remote.rq
	dev := q.dev
	dev.nw.Env.After(base+f.LinkDelay(q.dev.Node.ID, q.peer.Node.ID), func() {
		if rq.Closed() {
			dev.nw.flt.NoteDrop()
			dev.pool.putBuf(buf)
			return
		}
		rq.PostSend(buf)
	})
}

// Release returns a buffer obtained from Recv/TryRecv to the endpoint's
// buffer pool. The caller must be done decoding; the bytes may be handed
// to a later sender. Releasing is optional — unreleased buffers are
// garbage-collected as before.
func (q *QP) Release(buf []byte) { q.dev.pool.putBuf(buf) }

// Recv blocks until the next message from the peer arrives. It returns
// nil when the QP has been flushed to the error state (peer crash or
// partition) — the flush wakes parked receivers.
func (q *QP) Recv(p *sim.Proc) []byte {
	msg, ok := q.rq.Recv(p)
	if !ok {
		return nil
	}
	q.Received++
	return msg
}

// TryRecv returns a queued message without blocking.
func (q *QP) TryRecv() ([]byte, bool) {
	msg, ok := q.rq.TryRecv()
	if ok {
		q.Received++
	}
	return msg, ok
}

// Peer returns the node ID of the other endpoint.
func (q *QP) Peer() int { return q.peer.Node.ID }
