package verbs

import (
	"fmt"

	"ngdc/internal/sim"
)

// Completion-queue support: the asynchronous half of the verbs interface.
// Work requests are posted with PostList, without blocking; each
// completes by delivering a Completion into the chosen CQ, which a
// process drains with Poll. This is how real verbs applications overlap
// one-sided operations — the
// blocking Device methods run the same record (chain.go) and park the
// caller for its completion instead. A handler CQ (HandlerCQ) delivers
// to a function at the completion instant: with Device.Issue it is the
// surface event chains drive one-sided operations from, on the blocking
// calls' timeline without a process per operation.

// Completion reports one finished work request.
type Completion struct {
	// ID is the caller-chosen work-request identifier.
	ID uint64
	// Op names the operation ("read", "write", "cas", "faa").
	Op string
	// Old carries the previous value for atomic operations.
	Old uint64
	// Err is non-nil if the operation failed validation.
	Err error
}

// CQ is a completion queue.
type CQ struct {
	ch *sim.Chan[Completion]
	// fn, when set, receives completions instead of ch (HandlerCQ).
	fn func(Completion)
}

// CreateCQ makes a completion queue. It holds every completion until
// Poll takes it, so depth is unread; the repository benchmark still
// passes one.
func (d *Device) CreateCQ(name string, depth int) *CQ {
	return &CQ{ch: sim.NewChan[Completion](d.nw.Env, fmt.Sprintf("%s/cq/%s", d.Node.Name, name))}
}

// HandlerCQ makes a completion queue that queues nothing: each
// completion is passed to fn at its completion instant, in scheduler
// context, after the work request's record is back in its pool — so fn
// may issue the next operation, and must not block. It serves any
// device; Poll does not apply to it.
func HandlerCQ(fn func(Completion)) *CQ { return &CQ{fn: fn} }

// deliver hands a completion to the queue's consumer.
func (cq *CQ) deliver(c Completion) {
	if cq.fn != nil {
		cq.fn(c)
		return
	}
	cq.ch.Send(c)
}

// Poll blocks until the next completion.
func (cq *CQ) Poll(p *sim.Proc) Completion {
	c, _ := cq.ch.Recv(p)
	return c
}

// Work-request op names, used in WR.Op and echoed in Completion.Op.
const (
	OpRead  = "read"
	OpWrite = "write"
	OpCAS   = "cas"
	OpFAA   = "faa"
)

// WR describes one work request for PostList. Exactly the fields for the
// chosen Op are consulted: Dst for OpRead; Src for OpWrite; Compare/Swap
// for OpCAS; Delta for OpFAA.
type WR struct {
	ID            uint64
	Op            string
	Target        RemoteAddr
	Off           int
	Dst           []byte
	Src           []byte
	Compare, Swap uint64
	Delta         uint64
}

// post fills a pooled record for one one-sided operation. The caller
// starts it: a posted request from its batch's doorbell, an issued one
// inline in Device.Issue, a blocking call (cq nil) through Device.issue.
// buf is a read's destination or a write's source; arg is a CAS's swap
// value or an FAA's addend.
func (d *Device) post(cq *CQ, id uint64, op wrOp, r RemoteAddr, off int, buf []byte, cmp, arg uint64) *workReq {
	w := d.getWorkReq()
	w.cq, w.id, w.op = cq, id, op
	w.r, w.off, w.buf = r, off, buf
	w.cmp, w.arg = cmp, arg
	return w
}

// Issue starts one work request inline at the call instant — the blocking
// calls' timeline, with no doorbell event — and completes it into cq. A
// request that fails validation completes before Issue returns, so with a
// handler CQ the handler runs inside the caller, which is how an event
// chain's callback sees the failure in its own callback context.
func (d *Device) Issue(cq *CQ, wr WR) {
	if w := d.postWR(cq, &wr); w != nil {
		w.startStep()
		return
	}
	cq.deliver(unknownOp(&wr))
}

// postWR fills a record for wr; nil for an unknown WR.Op.
func (d *Device) postWR(cq *CQ, wr *WR) *workReq {
	switch wr.Op {
	case OpRead:
		return d.post(cq, wr.ID, wrRead, wr.Target, wr.Off, wr.Dst, 0, 0)
	case OpWrite:
		return d.post(cq, wr.ID, wrWrite, wr.Target, wr.Off, wr.Src, 0, 0)
	case OpCAS:
		return d.post(cq, wr.ID, wrCAS, wr.Target, wr.Off, nil, wr.Compare, wr.Swap)
	case OpFAA:
		return d.post(cq, wr.ID, wrFAA, wr.Target, wr.Off, nil, 0, wr.Delta)
	}
	return nil
}

func unknownOp(wr *WR) Completion {
	return Completion{ID: wr.ID, Op: wr.Op, Err: &OpError{Op: wr.Op, Target: wr.Target, Reason: "unknown op"}}
}

// PostList posts a batch of work requests with a single doorbell: one
// scheduled event starts every chain, and completions are delivered to
// the CQ in posting order regardless of how the operations finish (a
// per-batch reorder buffer holds stragglers' successors back). An
// unknown WR.Op completes with an error; other requests in the batch
// still run. The caller continues immediately; a write's Src is captured
// as-is and must not be reused until its completion arrives (the verbs
// contract).
func (d *Device) PostList(cq *CQ, wrs []WR) {
	if len(wrs) == 0 {
		return
	}
	b := d.getBatch(cq, len(wrs))
	for i := range wrs {
		w := d.postWR(cq, &wrs[i])
		if w == nil {
			b.comps[i], b.done[i] = unknownOp(&wrs[i]), true
			continue
		}
		w.b, w.slot = b, i
		b.wrs = append(b.wrs, w)
	}
	d.nw.Env.After(0, b.doorbellFn)
}
