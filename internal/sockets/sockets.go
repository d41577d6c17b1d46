// Package sockets implements the paper's advanced-communication-protocol
// layer: sockets-like, message-boundary-preserving connections over the
// simulated interconnect, in five flavours.
//
//   - TCP: the host-based baseline. Every message costs protocol CPU on
//     both hosts and the slower TCP wire path.
//   - BSDP: buffer-copy Sockets Direct Protocol with credit-based flow
//     control. The sender copies into one of a fixed set of 8 KiB
//     registered buffers; each message consumes a whole credit regardless
//     of size, so tiny messages waste almost the entire buffer pool (the
//     deficiency §6 of the paper describes).
//   - ZSDP: zero-copy SDP. Each send performs a rendezvous (RTS/CTS
//     control messages) followed by a one-sided RDMA write of the payload:
//     no copies, but the rendezvous latency is paid synchronously per
//     message.
//   - AZSDP: asynchronous zero-copy SDP (AZ-SDP, [Balaji et al. CAC'06]).
//     The send call memory-protects the user buffer and returns
//     immediately; transfers proceed asynchronously with several
//     rendezvous in flight, hiding the handshake latency while preserving
//     synchronous-sockets semantics.
//   - PSDP: SDP with packetized flow control. The sender manages both
//     sides' buffer pool at byte granularity and packs queued small
//     messages into full buffers before they hit the wire, removing the
//     buffer wastage of BSDP.
//
// Simulation note: all schemes copy payload bytes internally so that a
// caller may reuse its buffer the moment Send returns, exactly the
// synchronous-sockets guarantee AZ-SDP's memory-protection trick provides
// on real hardware. Zero-copy shows up in the cost model (no copy time
// charged), not in Go-level aliasing.
package sockets

import (
	"fmt"
	"time"

	"ngdc/internal/sim"
	"ngdc/internal/trace"
	"ngdc/internal/verbs"
)

// Scheme selects the wire protocol of a connection.
type Scheme int

// The supported schemes.
const (
	TCP Scheme = iota
	BSDP
	ZSDP
	AZSDP
	PSDP
)

// String returns the scheme's conventional name.
func (s Scheme) String() string {
	switch s {
	case TCP:
		return "TCP"
	case BSDP:
		return "BSDP"
	case ZSDP:
		return "ZSDP"
	case AZSDP:
		return "AZ-SDP"
	case PSDP:
		return "P-SDP"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Flow control, as common SDP deployments of the era configured it.
const (
	// bufSize is the size of one registered bounce buffer (BSDP/PSDP).
	bufSize = 8 * 1024
	// credits is the number of bounce buffers / frames in flight
	// (BSDP/PSDP).
	credits = 16
	// window is the maximum number of asynchronous transfers in flight
	// (AZSDP).
	window = 16
	// mprotect is the cost of memory-protecting one buffer (AZSDP).
	mprotect = time.Microsecond
)

// Options configures a connection. It has no fields: flow control is
// fixed. The struct keeps Bandwidth's signature.
type Options struct{}

// DefaultOptions returns the zero Options.
func DefaultOptions() Options { return Options{} }

// Conn is one endpoint of a bidirectional, message-oriented connection.
type Conn struct {
	scheme Scheme
	send   *half // local -> peer
	recv   *half // peer -> local
}

// wireMsg is one unit delivered to the receive queue.
type wireMsg struct {
	data   []byte
	last   bool // final chunk of an application message
	credit int  // credits to return on copy-out
	pool   int  // pool bytes to return on copy-out
}

// half is one direction of a connection.
type half struct {
	scheme Scheme
	src    *verbs.Device
	dst    *verbs.Device
	q      *sim.Chan[wireMsg]

	// BSDP/PSDP flow control.
	credits *sim.Resource
	pool    *sim.Resource
	// Pending credit returns, drained FIFO by the precomputed crFn
	// callback (the return delay is the constant IBWriteLatency, so pop
	// order matches scheduling order); replaces a captured closure per
	// received chunk.
	crq  sim.Queue[creditReturn]
	crFn func()

	// Wire deliveries in flight, drained FIFO by delFn (single chunks)
	// or frameFn (a P-SDP frame of frameq.Pop() chunks in one event).
	// Every delivery on one half shares a single latency constant
	// (TCPLatency or IBSendLatency), so pop order matches schedule order.
	delq    sim.Queue[wireMsg]
	frameq  sim.Queue[int]
	delFn   func()
	frameFn func()

	// PSDP staging.
	staged *sim.Chan[wireMsg]
	frame  []wireMsg // pump's packing scratch, reused across frames

	// ZSDP/AZSDP rendezvous state (shared by the two endpoints): RTS and
	// CTS control messages in flight (constant IBSendLatency each way),
	// RTS messages parked waiting for a posted receive, and a free list
	// of rendezvous records recycled once their CTS has landed.
	rtsq        sim.Queue[*rendezvous]
	rtsFly      sim.Queue[*rendezvous]
	ctsFly      sim.Queue[*rendezvous]
	rvFree      []*rendezvous
	rtsFn       func()
	ctsFn       func()
	postedRecvs int

	// AZSDP in-flight window and the sequence numbers deliverInOrder
	// checks.
	window     *sim.Resource
	sendSeq    int64
	deliverSeq int64

	// tr/ts publish into the env's trace registry; nil when untraced.
	tr *trace.Registry
	ts *trace.SchemeStats
	// stallNames holds the per-kind trace labels, preformatted at Dial so
	// acquire does not concatenate per stall. Nil when untraced.
	stallNames []string
}

// acquire takes n units of a flow-control resource (credits, pool bytes
// or window slots) for p and, when traced, accounts the wait as one
// stall of kind.
func (h *half) acquire(p *sim.Proc, r *sim.Resource, n int, kind trace.StallKind) {
	if h.ts == nil {
		r.Acquire(p, n)
		return
	}
	start := h.src.Env().Now()
	r.Acquire(p, n)
	wait := time.Duration(h.src.Env().Now() - start)
	if wait <= 0 {
		return
	}
	st := &h.ts.Stalls[kind]
	st.Count++
	st.Wait += wait
	h.tr.Emit("sockets", h.stallNames[kind], h.src.Node.ID, 0, wait)
}

// rendezvous is one RTS/CTS handshake: the sender parked until its CTS
// lands, and whether the receive side grants it at once (AZ-SDP).
type rendezvous struct {
	sender *sim.Proc
	async  bool
}

// Dial creates a connected pair of endpoints between two verbs devices
// using the given scheme. The returned connections belong to the first
// and second device respectively.
func Dial(scheme Scheme, a, b *verbs.Device) (*Conn, *Conn) {
	ab := newHalf(scheme, a, b)
	ba := newHalf(scheme, b, a)
	a.Node.ConnOpened()
	b.Node.ConnOpened()
	return &Conn{scheme: scheme, send: ab, recv: ba},
		&Conn{scheme: scheme, send: ba, recv: ab}
}

func newHalf(scheme Scheme, src, dst *verbs.Device) *half {
	env := src.Node.Env()
	name := fmt.Sprintf("%s->%s/%s", src.Node.Name, dst.Node.Name, scheme)
	h := &half{
		scheme: scheme,
		src:    src,
		dst:    dst,
		q:      sim.NewChan[wireMsg](env, name+"/rq", 1<<20),
	}
	if r := trace.Of(env); r != nil {
		h.tr = r
		h.ts = r.Scheme(scheme.String())
		h.stallNames = make([]string, len(h.ts.Stalls))
		for k := range h.stallNames {
			h.stallNames[k] = scheme.String() + "-stall-" + trace.StallKind(k).String()
		}
	}
	h.crFn = h.returnCredits
	h.delFn = h.deliverNext
	h.frameFn = h.deliverFrame
	h.rtsFn = h.rtsArrive
	h.ctsFn = h.ctsArrive
	switch scheme {
	case BSDP:
		h.credits = sim.NewResource(env, name+"/credits", credits)
	case PSDP:
		h.credits = sim.NewResource(env, name+"/credits", credits)
		h.pool = sim.NewResource(env, name+"/pool", credits*bufSize)
		h.staged = sim.NewChan[wireMsg](env, name+"/staged", 1<<20)
		env.GoDaemon(name+"/pump", h.psdpPump)
	case AZSDP:
		h.window = sim.NewResource(env, name+"/window", window)
	}
	return h
}

// Send transmits one application message. The call returns as soon as the
// caller's buffer is reusable under the scheme's semantics (which for
// every scheme here means: immediately on return).
func (c *Conn) Send(p *sim.Proc, data []byte) error {
	h := c.send
	if h.ts != nil {
		h.ts.Msgs++
		// ZSDP/AZ-SDP move the payload with one-sided RDMA writes and no
		// host copies; the other schemes pass through bounce buffers or
		// the host TCP stack.
		if c.scheme == ZSDP || c.scheme == AZSDP {
			h.ts.ZeroCopyBytes += int64(len(data))
		} else {
			h.ts.BCopyBytes += int64(len(data))
		}
	}
	switch c.scheme {
	case TCP:
		return h.sendTCP(p, data)
	case BSDP:
		return h.sendBSDP(p, data)
	case ZSDP:
		return h.sendZSDP(p, data)
	case AZSDP:
		return h.sendAZSDP(p, data)
	case PSDP:
		return h.sendPSDP(p, data)
	}
	return fmt.Errorf("sockets: unknown scheme %v", c.scheme)
}

// RecvMsg blocks until one whole application message is available and
// returns it as a pooled Msg: the payload buffer belongs to the caller
// until Release returns it to the sending device's pool. Receivers that
// decode and Release keep the steady-state receive path allocation-free.
func (c *Conn) RecvMsg(p *sim.Proc) (Msg, error) {
	h := c.recv
	if c.scheme == ZSDP {
		h.postRecv()
	}
	var asm []byte
	for {
		wm, ok := h.q.Recv(p)
		if !ok {
			return Msg{}, fmt.Errorf("sockets: recv on closed %s connection", c.scheme)
		}
		h.copyOut(p, wm)
		asm = h.appendChunk(asm, wm.data)
		if wm.last {
			return Msg{Data: asm, dev: h.src}, nil
		}
	}
}

// Recv blocks until one whole application message is available and
// returns it. The returned slice is owned by the caller and never
// recycled; allocation-sensitive receive loops should prefer RecvMsg +
// Release.
func (c *Conn) Recv(p *sim.Proc) ([]byte, error) {
	m, err := c.RecvMsg(p)
	return m.Data, err
}

// copyOut charges the receive-side copy (where the scheme has one) and
// returns flow-control resources.
func (h *half) copyOut(p *sim.Proc, wm wireMsg) {
	params := h.src.Params()
	switch h.scheme {
	case TCP:
		h.dst.Node.Exec(p, params.TCPCPUTime(len(wm.data)))
		if h.tr != nil {
			h.tr.RecordOp(trace.OpTCP, 0, params.TCPCPUTime(len(wm.data)))
		}
	case BSDP, PSDP:
		// Copy from the bounce buffer to the application buffer, then
		// return the credit to the sender (one RDMA write of the credit
		// update later).
		p.Sleep(params.CopyTime(len(wm.data)))
		if h.tr != nil {
			h.tr.RecordOp(trace.OpCopy, 0, params.CopyTime(len(wm.data)))
		}
		if wm.credit > 0 || wm.pool > 0 {
			h.crq.Push(creditReturn{credit: wm.credit, pool: wm.pool})
			h.dst.Env().After(params.IBWriteLatency, h.crFn)
		}
	}
}

type creditReturn struct {
	credit, pool int
}

// returnCredits releases the oldest pending credit return; the backing
// FIFO is recycled once drained.
func (h *half) returnCredits() {
	cr := h.crq.Pop()
	if cr.credit > 0 {
		h.credits.Release(cr.credit)
	}
	if cr.pool > 0 {
		h.pool.Release(cr.pool)
	}
}
