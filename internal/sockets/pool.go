package sockets

// Buffer pooling and delivery recycling: the sockets hot path borrows the
// sending device's power-of-two buffer pool (verbs.Device.GetBuf/PutBuf)
// for every payload chunk it used to allocate, and replaces the captured
// closure per in-flight chunk with per-half FIFOs drained by callbacks
// bound once at Dial. All deliveries of one half share a single latency
// constant (TCPLatency for TCP, IBSendLatency for the SDP family), so pop
// order provably matches scheduling order.
//
// Ownership contract: a received Msg's payload is backed by the sender
// device's pool. It is valid until the receiver calls Release; after
// Release the buffer may back any later send on that connection, so
// decode (or copy out) first. Release is optional and nil-safe — an
// unreleased buffer is simply collected by the GC — but steady-state
// receive loops that release run allocation-free.

// Msg is one received application message. Data is a pooled buffer owned
// by the caller until Release.
type Msg struct {
	Data []byte

	dev releaser
}

// releaser is the pool a Msg's payload returns to (a *verbs.Device).
type releaser interface{ PutBuf([]byte) }

// Release returns the payload buffer to the pool it was minted from. It
// is a no-op on messages without a pooled payload and on double release,
// so receivers can call it unconditionally after decoding.
func (m *Msg) Release() {
	if m.dev != nil {
		m.dev.PutBuf(m.Data)
		m.dev = nil
		m.Data = nil
	}
}

// getChunk copies data into a pooled buffer from the half's send-side
// device pool (the pool every payload of this direction belongs to).
func (h *half) getChunk(data []byte) []byte {
	buf := h.src.GetBuf(len(data))
	copy(buf, data)
	return buf
}

// appendChunk grows a reassembly buffer through the pool's size classes:
// the consumed chunk (and any outgrown buffer) goes straight back to the
// pool, so multi-chunk reassembly is allocation-free once the classes are
// warm. A nil asm transfers ownership of the chunk itself (no copy).
func (h *half) appendChunk(asm, chunk []byte) []byte {
	if asm == nil {
		return chunk
	}
	need := len(asm) + len(chunk)
	if need <= cap(asm) {
		asm = asm[:need]
	} else {
		na := h.src.GetBuf(need)
		copy(na, asm)
		h.src.PutBuf(asm)
		asm = na
	}
	copy(asm[need-len(chunk):], chunk)
	h.src.PutBuf(chunk)
	return asm
}

// deliverNext releases the oldest pending wire chunk to the receive
// queue; the single callback per half replaces one closure per chunk.
func (h *half) deliverNext() { h.q.PostSend(h.delq.Pop()) }

// deliverFrame releases one P-SDP frame — a run of staged chunks that
// went on the wire under one credit — in a single event, exactly as the
// per-frame closure it replaces did.
func (h *half) deliverFrame() {
	for n := h.frameq.Pop(); n > 0; n-- {
		h.q.PostSend(h.delq.Pop())
	}
}

// getRendezvous returns a recycled rendezvous record.
func (h *half) getRendezvous() *rendezvous {
	if n := len(h.rvFree); n > 0 {
		rv := h.rvFree[n-1]
		h.rvFree = h.rvFree[:n-1]
		return rv
	}
	return &rendezvous{}
}
