package verbs

import "ngdc/internal/sim"

// TCP-style two-sided messaging over the same wire, for the paper's
// baselines. Unlike IB send/recv, a host TCP message costs CPU work on
// both hosts: the sender pays protocol processing before the data reaches
// the wire, and the receiver pays protocol processing (scheduled on its
// FIFO run queue) before the payload is available to the application.
// Under remote load that receive-side CPU work queues behind other tasks,
// which is exactly the sensitivity the paper's RDMA designs eliminate.

// SendTCP transmits data to a receive queue using the host TCP stack.
// The caller pays sender-side CPU and wire serialization. The queue is
// received from with RecvTCP, not Recv.
func (d *Device) SendTCP(p *sim.Proc, q *RecvQueue, data []byte) error {
	if f := d.nw.flt; f != nil && f.Down(d.Node.ID) {
		return &OpError{Op: "tcp-send", Target: RemoteAddr{Node: q.dev.Node.ID}, Reason: "local device down"}
	}
	pp := d.nw.params
	// Sender-side protocol processing on this node's CPU.
	d.Node.Exec(p, pp.TCPCPUTime(len(data)))
	buf := d.pool.getBuf(len(data))
	copy(buf, data)
	d.nic.AcquireTx(p, pp.TCPTxTime(len(data)))
	d.sent(q, buf, 0, true)
	return nil
}

// RecvTCP blocks until a TCP message arrives on the queue, then pays the
// receive-side protocol processing on its node's CPU before returning the
// payload to the caller.
func (q *RecvQueue) RecvTCP(p *sim.Proc) Message {
	msg, _ := q.ch.Recv(p)
	d := q.dev
	d.Node.Exec(p, d.nw.params.TCPCPUTime(len(msg.Data)))
	return msg
}
