package verbs

import "ngdc/internal/sim"

// TCP-style two-sided messaging over the same wire, for the paper's
// baselines. Unlike IB send/recv, a host TCP message costs CPU work on
// both hosts: the sender pays protocol processing before the data reaches
// the wire, and the receiver pays protocol processing (scheduled on its
// FIFO run queue) before the payload is available to the application.
// Under remote load that receive-side CPU work queues behind other tasks,
// which is exactly the sensitivity the paper's RDMA designs eliminate.

// SendTCP transmits data to the named service queue on the destination
// node using the host TCP stack. The caller pays sender-side CPU and wire
// serialization.
func (d *Device) SendTCP(p *sim.Proc, dstNode int, service string, data []byte) error {
	dst := d.nw.dev(dstNode)
	if dst == nil {
		return &OpError{Op: "tcp-send", Target: RemoteAddr{Node: dstNode}, Reason: "no such node"}
	}
	if f := d.nw.flt; f != nil && f.Down(d.Node.ID) {
		return &OpError{Op: "tcp-send", Target: RemoteAddr{Node: dstNode}, Reason: "local device down"}
	}
	pp := d.nw.Fab.P
	// Sender-side protocol processing on this node's CPU.
	d.Node.Exec(p, pp.TCPCPUTime(len(data)))
	buf := d.pool.getBuf(len(data))
	copy(buf, data)
	d.nic.AcquireTx(p, pp.TCPTxTime(len(data)))
	if f := d.nw.flt; f != nil && f.Faulted(d.Node.ID, dstNode) {
		// Faulted-link slow path shared with SendBuf: unreachable peers
		// and loss rolls eat the segment, added delay takes the
		// captured-closure route around the constant-latency FIFO.
		d.deliverFaulted(f, dst.queue("tcp:"+service), service, buf, dstNode, pp.TCPLatency)
		return nil
	}
	// TCP deliveries get their own FIFO: the constant-delay pop-in-push-
	// order argument only holds per latency constant, and TCPLatency
	// differs from IBSendLatency.
	d.tcpDelq.Push(sendDelivery{
		q:    dst.queue("tcp:" + service),
		msg:  Message{From: d.Node.ID, Service: service, Data: buf, pool: &d.pool},
		from: d.Node.ID,
		to:   dstNode,
	})
	d.nw.Env.After(pp.TCPLatency, d.deliverTCPFn)
	return nil
}

// RecvTCP blocks until a TCP message arrives on the named service queue,
// then pays the receive-side protocol processing on this node's CPU before
// returning the payload to the caller.
func (d *Device) RecvTCP(p *sim.Proc, service string) Message {
	msg, _ := d.queue("tcp:" + service).Recv(p)
	d.Node.Exec(p, d.nw.Fab.P.TCPCPUTime(len(msg.Data)))
	return msg
}
