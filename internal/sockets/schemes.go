package sockets

import (
	"fmt"

	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// All payload copies here go through pooled buffers (getChunk) so callers
// may reuse their buffers the moment Send returns (synchronous sockets
// semantics) without a per-message allocation, and every in-flight
// delivery rides one of the half's recycled FIFOs drained by a callback
// bound once at Dial instead of a captured closure per chunk.

// sendTCP models the host-based stack: protocol CPU on the sending node,
// the TCP wire, and (in copyOut) protocol CPU on the receiving node.
func (h *half) sendTCP(p *sim.Proc, data []byte) error {
	params := h.src.Params()
	h.src.Node.Exec(p, params.TCPCPUTime(len(data)))
	h.src.NIC().AcquireTx(p, params.TCPTxTime(len(data)))
	if h.tr != nil {
		h.tr.RecordOp(trace.OpTCP, params.TCPTxTime(len(data))+params.TCPLatency,
			params.TCPCPUTime(len(data)))
	}
	h.delq.Push(wireMsg{data: h.getChunk(data), last: true})
	h.src.Env().After(params.TCPLatency, h.delFn)
	return nil
}

// sendBSDP is buffer-copy SDP with credit-based flow control: each chunk
// occupies one whole bounce buffer (= one credit) regardless of its size.
func (h *half) sendBSDP(p *sim.Proc, data []byte) error {
	params := h.src.Params()
	env := h.src.Env()
	for off := 0; ; off += bufSize {
		end := off + bufSize
		last := false
		if end >= len(data) {
			end = len(data)
			last = true
		}
		chunk := h.getChunk(data[off:end])
		h.acquire(p, h.credits, 1, trace.StallCredits)
		if h.tr != nil {
			h.tr.RecordOp(trace.OpCopy, 0, params.SDPPerChunkCPU+params.CopyTime(len(chunk)))
		}
		p.Sleep(params.SDPPerChunkCPU + params.CopyTime(len(chunk))) // copy into the bounce buffer
		h.src.NIC().AcquireTx(p, params.IBMsgTxTime(len(chunk)))
		if h.tr != nil {
			h.tr.RecordOp(trace.OpSend, params.IBMsgTxTime(len(chunk))+params.IBSendLatency, 0)
		}
		h.delq.Push(wireMsg{data: chunk, last: last, credit: 1})
		env.After(params.IBSendLatency, h.delFn)
		if last {
			return nil
		}
	}
}

// sendPSDP stages the message for the packetizing pump. Flow control is
// byte-granular: a chunk only consumes its own size from the shared
// buffer pool, and the pump packs staged chunks into full frames.
func (h *half) sendPSDP(p *sim.Proc, data []byte) error {
	params := h.src.Params()
	if len(data) == 0 {
		h.staged.Send(wireMsg{data: nil, last: true})
		return nil
	}
	for off := 0; off < len(data); off += bufSize {
		end := off + bufSize
		if end > len(data) {
			end = len(data)
		}
		chunk := h.getChunk(data[off:end])
		h.acquire(p, h.pool, len(chunk), trace.StallPool)
		if h.tr != nil {
			h.tr.RecordOp(trace.OpCopy, 0, params.SDPPerChunkCPU+params.CopyTime(len(chunk)))
		}
		p.Sleep(params.SDPPerChunkCPU + params.CopyTime(len(chunk))) // copy into the staging pool
		h.staged.Send(wireMsg{data: chunk, last: end == len(data), pool: len(chunk)})
	}
	return nil
}

// psdpPump drains staged chunks, packs them into frames of up to one
// bounce buffer, and puts each frame on the wire under one credit. The
// frame is packed in a reused scratch slice and delivered through the
// frame FIFO in a single event, exactly as the per-frame closure it
// replaces did.
func (h *half) psdpPump(p *sim.Proc) {
	params := h.src.Params()
	env := h.src.Env()
	for {
		first, ok := h.staged.Recv(p)
		if !ok {
			return
		}
		h.frame = append(h.frame[:0], first)
		bytes := len(first.data)
		for bytes < bufSize {
			next, ok := h.staged.TryRecv()
			if !ok {
				break
			}
			h.frame = append(h.frame, next)
			bytes += len(next.data)
		}
		h.acquire(p, h.credits, 1, trace.StallCredits)
		h.src.NIC().AcquireTx(p, params.IBMsgTxTime(bytes))
		if h.tr != nil {
			h.tr.RecordOp(trace.OpSend, params.IBMsgTxTime(bytes)+params.IBSendLatency, 0)
		}
		// The frame's credit rides on its final chunk; pool bytes return
		// per chunk as the application copies each one out.
		h.frame[len(h.frame)-1].credit = 1
		for _, wm := range h.frame {
			h.delq.Push(wm)
		}
		h.frameq.Push(len(h.frame))
		env.After(params.IBSendLatency, h.frameFn)
	}
}

// sendZSDP performs the synchronous zero-copy rendezvous: RTS to the
// receiver, wait for CTS (granted when a receive is posted), RDMA-write
// the payload, deliver. No memory copies are charged.
func (h *half) sendZSDP(p *sim.Proc, data []byte) error {
	h.rendezvous(p, false)
	h.writePayload(p, data)
	h.q.Send(wireMsg{data: h.getChunk(data), last: true})
	return nil
}

// sendAZSDP memory-protects the buffer and returns; the transfer
// (rendezvous + RDMA write) continues asynchronously, with up to
// window transfers in flight, each delivered in send order (see
// deliverInOrder). The per-transfer goroutine is the one remaining
// allocation of this scheme's send path — it models genuinely concurrent
// hardware activity.
func (h *half) sendAZSDP(p *sim.Proc, data []byte) error {
	p.Sleep(mprotect)
	h.acquire(p, h.window, 1, trace.StallWindow)
	seq := h.sendSeq
	h.sendSeq++
	buf := h.getChunk(data)
	h.src.Env().Go("azsdp-xfer", func(tp *sim.Proc) {
		h.rendezvous(tp, true)
		h.writePayload(tp, buf)
		h.deliverInOrder(seq, wireMsg{data: buf, last: true})
		h.window.Release(1)
	})
	return nil
}

// rendezvous sends the RTS control message and parks p until the CTS
// has travelled back. For a synchronous rendezvous (ZSDP) the receiver
// grants the CTS only once the application has posted a matching
// receive; in asynchronous mode (AZ-SDP) the receive side grants
// immediately — its buffers are managed asynchronously under memory
// protection, with the sender's transfer window bounding the number of
// grants outstanding. Control messages ride the rtsFly/ctsFly FIFOs
// (both directions cost the constant IBSendLatency, so pop order matches
// schedule order), and ctsArrive recycles the record as it wakes p. The
// CTS cannot land before p parks: it answers an RTS that is only now
// put on the wire.
func (h *half) rendezvous(p *sim.Proc, async bool) {
	rv := h.getRendezvous()
	rv.sender, rv.async = p, async
	h.rtsFly.Push(rv)
	h.src.Env().After(h.src.Params().IBSendLatency, h.rtsFn)
	p.Park("sdp: waiting for CTS")
}

// rtsArrive lands the oldest in-flight RTS at the receive side: grant the
// CTS right away (asynchronous mode, or a receive is already posted) or
// park the rendezvous until one is.
func (h *half) rtsArrive() {
	rv := h.rtsFly.Pop()
	if rv.async || h.postedRecvs > 0 {
		if !rv.async {
			h.postedRecvs--
		}
		h.grantCTS(rv)
		return
	}
	h.rtsq.Push(rv)
}

// grantCTS puts the CTS control message on the wire back to the sender.
func (h *half) grantCTS(rv *rendezvous) {
	h.ctsFly.Push(rv)
	h.src.Env().After(h.src.Params().IBSendLatency, h.ctsFn)
}

// ctsArrive lands the oldest in-flight CTS: it wakes the sender and
// recycles the record.
func (h *half) ctsArrive() {
	rv := h.ctsFly.Pop()
	h.src.Env().WakeAfter(rv.sender, 0)
	rv.sender = nil
	h.rvFree = append(h.rvFree, rv)
}

// postRecv is called by Recv on rendezvous schemes: it grants the oldest
// waiting RTS, or records a posted receive for the next RTS to consume.
func (h *half) postRecv() {
	if h.rtsq.Len() > 0 {
		h.grantCTS(h.rtsq.Pop())
		return
	}
	h.postedRecvs++
}

// writePayload charges the one-sided RDMA write of the payload.
func (h *half) writePayload(p *sim.Proc, data []byte) {
	params := h.src.Params()
	h.src.NIC().AcquireTx(p, params.IBMsgTxTime(len(data)))
	p.Sleep(params.IBWriteLatency)
	if h.tr != nil {
		h.tr.RecordOp(trace.OpRDMAWrite, params.IBMsgTxTime(len(data))+params.IBWriteLatency, 0)
	}
}

// deliverInOrder posts a completed AZ-SDP transfer to the receive queue.
// Transfers complete in send order: each pays the same RTS, CTS and write
// latencies around the NIC's FIFO Tx engine, and the path has no fault
// hook, so a transfer that completes out of its turn is a model bug.
func (h *half) deliverInOrder(seq int64, wm wireMsg) {
	if seq != h.deliverSeq {
		panic(fmt.Sprintf("sockets: AZ-SDP transfer %d completed before transfer %d", seq, h.deliverSeq))
	}
	h.deliverSeq++
	h.q.Send(wm)
}
