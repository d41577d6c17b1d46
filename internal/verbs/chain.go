package verbs

// Event-chain datapath: every one-sided operation is one small state
// machine (workReq) whose stages run as scheduler callbacks — Env.After
// timers and the callbacks of a hold of a NIC's Tx engine — with no
// process stepping through Sleeps. There is one record and three ways to
// complete it: a blocking call starts it inline, parks its process once
// and is woken for the completion instant; a posted work request starts
// at its doorbell event, never touches a process and completes into a CQ;
// an issued one (Device.Issue) starts inline like the blocking call and
// completes into a CQ like the posted one — into a handler CQ, a callback
// at the completion instant, which is how an event chain runs one-sided
// operations on the blocking timeline without a process.
//
// Serialization is one call, fabric.NIC.TransmitAsync(ser, granted,
// done): the engine is held for ser from the grant instant and is free
// again when done runs. A write holds the issuer's engine and continues
// with its placement tail; a read holds the target's for the response,
// samples target memory in granted — the instant the response starts to
// serialize — and continues with the response half. An operation that
// finds the engine busy waits in its FIFO with every other transmit and
// costs one dispatch event at the grant instant; either way there is one
// event at end-of-serialization and one for the tail. Each stage
// schedules its successor at the instant the blocking sequence Acquire,
// Sleep, Release, Sleep would have scheduled its next wake, so event
// sequence numbers — and with them same-instant order and every
// downstream interleaving — are those of that sequence.
//
// All chain state lives in pooled records (workReq for one-sided ops,
// postBatch for doorbell-batched lists) whose step closures are bound
// once when the record is first allocated, so the steady-state datapath
// performs no allocation.

import (
	"encoding/binary"
	"time"

	"ngdc/internal/fabric"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

type wrOp uint8

const (
	wrRead wrOp = iota
	wrWrite
	wrCAS
	wrFAA
)

// opName is the operation's name in errors, completions and trace events.
var opName = [...]string{wrRead: OpRead, wrWrite: OpWrite, wrCAS: OpCAS, wrFAA: OpFAA}

// Preformatted park reasons: parking must not allocate.
var parkReason = [...]string{
	wrRead:  "verbs read",
	wrWrite: "verbs write",
	wrCAS:   "verbs atomic",
	wrFAA:   "verbs atomic",
}

// workReq is the one implementation of a one-sided operation: validate,
// request half, Tx hold, response half, complete.
// The blocking Device calls and the posted and issued work requests fill
// the same record and run the same steps; they differ only in who waits
// for the tail. A record with an issuing process (p) wakes it for the
// completion instant and completes inline in that process; one without
// schedules finishStep there and completes into its CQ — a channel or a
// handler, directly or through its batch's reorder buffer.
type workReq struct {
	d  *Device
	p  *sim.Proc
	mr *MR
	// nic is the read target's, looked up in begin while the target device
	// is warm in the host's cache; half a round trip later it is not.
	nic *fabric.NIC
	// buf is the destination of a read or the source of a write.
	buf []byte
	off int
	ser time.Duration
	// half2 is the tail latency after the last target-side instant: the
	// response propagation of a read, the placement latency of a write,
	// the return half of an atomic.
	half2 time.Duration
	// cmp is a CAS's compare value; arg its swap value, or an FAA's addend.
	cmp, arg uint64
	old      uint64
	start    sim.Time
	op       wrOp
	r        RemoteAddr
	err      error

	midFn    func()
	sampleFn func()
	tailFn   func()

	// Posted and issued requests only.
	finishFn func()
	cq       *CQ
	b        *postBatch // nil for issued requests
	slot     int
	id       uint64
}

func (d *Device) getWorkReq() *workReq {
	if ln := len(d.wrFree); ln > 0 {
		w := d.wrFree[ln-1]
		d.wrFree = d.wrFree[:ln-1]
		return w
	}
	w := &workReq{d: d}
	w.midFn = w.midStep
	w.sampleFn = w.sampleStep
	w.tailFn = w.tail
	w.finishFn = w.finishStep
	return w
}

func (d *Device) putWorkReq(w *workReq) {
	w.p, w.mr, w.nic, w.buf, w.err, w.cq, w.b = nil, nil, nil, nil, nil, nil, nil
	w.old = 0
	d.wrFree = append(d.wrFree, w)
}

// begin validates the request and launches its first timeline stage at
// the current instant. It reports false, with err set and nothing
// scheduled, when validation fails.
func (w *workReq) begin() bool {
	d := w.d
	pp := d.nw.Fab.P
	name := opName[w.op]
	mr, lerr := d.nw.lookup(name, w.r)
	if lerr != nil {
		w.err = lerr
		return false
	}
	n, align, reason := len(w.buf), 1, "out of bounds"
	if w.op == wrCAS || w.op == wrFAA {
		n, align, reason = 8, 8, "bad atomic offset"
	}
	if w.off < 0 || w.off+n > len(mr.buf) || w.off%align != 0 {
		w.err = &OpError{Op: name, Target: w.r, Reason: reason}
		return false
	}
	if w.err = d.pathError(name, w.r); w.err != nil {
		return false
	}
	w.mr = mr
	w.start = d.nw.Env.Now()
	// Transport cost (transport.go, zero in the default small-cluster
	// regime) rides the first propagation leg; injected link delay rides
	// every leg.
	lead := d.connCost(w.r.Node)
	var xtra time.Duration
	if f := d.nw.flt; f != nil {
		if xtra = f.LinkDelay(d.Node.ID, w.r.Node); xtra > 0 {
			f.NoteDelay()
		}
	}
	// half1 is the request propagation of a read or an atomic; a write has
	// none, it serializes at the issuer first.
	var half1 time.Duration
	switch w.op {
	case wrWrite:
		d.Writes++
		w.ser = pp.IBTxTime(n)
		w.half2 = pp.IBWriteLatency + lead + xtra
		d.nic.TransmitAsync(w.ser, nil, w.tailFn)
		return true
	case wrRead:
		d.Reads++
		w.nic = mr.dev.nic
		w.ser = pp.IBTxTime(n)
		half1, w.half2 = pp.IBReadLatency/2, pp.IBReadLatency/2
	default:
		d.Atomics++
		half1 = pp.IBAtomicLatency / 2
		w.half2 = pp.IBAtomicLatency - half1
	}
	w.half2 += xtra
	d.nw.Env.After(half1+lead+xtra, w.midFn)
	return true
}

// startStep starts a CQ-completed work request: a posted one's doorbell
// event, or Device.Issue inline.
func (w *workReq) startStep() {
	if !w.begin() {
		w.finishStep()
	}
}

// midStep runs at the target-side instant of a read or an atomic. A
// target that crashed or was partitioned away while the request was in
// flight fails the op at its nominal completion instant instead of
// hanging; otherwise the read's response contends for the target's Tx
// engine, and the target HCA executes the atomic (the engine runs one
// callback at a time and no virtual time passes between load and store).
func (w *workReq) midStep() {
	if f := w.d.nw.flt; f != nil && !f.Reachable(w.d.Node.ID, w.r.Node) {
		w.err = &OpError{Op: opName[w.op], Target: w.r, Reason: "peer unreachable"}
		w.tail()
		return
	}
	if w.op == wrRead {
		w.nic.TransmitAsync(w.ser, w.sampleFn, w.tailFn)
		return
	}
	buf := w.mr.buf[w.off:]
	w.old = binary.LittleEndian.Uint64(buf)
	binary.LittleEndian.PutUint64(buf, applyAtomic(w.op, w.old, w.cmp, w.arg))
	w.tail()
}

// sampleStep runs the instant the target's Tx engine is granted to a
// read's response: the read's documented sampling point of target memory.
func (w *workReq) sampleStep() {
	copy(w.buf, w.mr.buf[w.off:w.off+len(w.buf)])
}

// tail schedules the completion instant half2 from now: the wake of the
// issuing process, sequenced here exactly as a staged Sleep would have
// been, or the posted request's finish event.
func (w *workReq) tail() {
	if w.p != nil {
		w.d.nw.Env.WakeAfter(w.p, w.half2)
		return
	}
	w.d.nw.Env.After(w.half2, w.finishFn)
}

func applyAtomic(op wrOp, old, cmp, arg uint64) uint64 {
	if op == wrFAA {
		return old + arg
	}
	if old == cmp {
		return arg
	}
	return old
}

// complete runs at the completion instant, in the woken issuer or in
// scheduler context (the trace layer is callback-safe): a write places
// its data now unless the path was lost after serialization, and a
// successful op is recorded.
func (w *workReq) complete() {
	d := w.d
	if w.err == nil && w.op == wrWrite {
		if w.err = d.pathError(OpWrite, w.r); w.err == nil {
			copy(w.mr.buf[w.off:], w.buf)
		}
	}
	if w.err != nil || d.ts == nil {
		return
	}
	pp := d.nw.Fab.P
	lat := time.Duration(d.nw.Env.Now() - w.start)
	n := len(w.buf)
	var (
		vs    *trace.VerbStats
		class trace.OpClass
		wire  time.Duration
	)
	switch w.op {
	case wrRead:
		vs, class, wire = &d.ts.Read, trace.OpRDMARead, pp.IBReadLatency+w.ser
	case wrWrite:
		vs, class, wire = &d.ts.Write, trace.OpRDMAWrite, pp.IBWriteLatency+w.ser
	default:
		n, lat = 8, pp.IBAtomicLatency
		vs, class, wire = &d.ts.Atomic, trace.OpRDMAAtomic, lat
	}
	vs.Record(n, lat)
	d.tr.RecordOp(class, wire, 0)
	d.tr.Emit("verbs", opName[w.op], d.Node.ID, n, lat)
}

// finishStep completes a posted or issued work request and delivers its
// completion, the record already back in the pool: a handler may issue
// its next operation from it.
func (w *workReq) finishStep() {
	w.complete()
	c := Completion{ID: w.id, Op: opName[w.op], Old: w.old, Err: w.err}
	cq, b, slot := w.cq, w.b, w.slot
	w.d.putWorkReq(w)
	if b != nil {
		b.complete(slot, c)
		return
	}
	cq.deliver(c)
}

// issue runs a filled record as a blocking call: the first stage starts
// inline at the call instant, the caller parks once, and the completion
// routine runs in the caller when the tail wakes it.
func (d *Device) issue(p *sim.Proc, w *workReq) (uint64, error) {
	w.p = p
	if w.begin() {
		p.Park(parkReason[w.op])
		w.complete()
	}
	old, err := w.old, w.err
	d.putWorkReq(w)
	return old, err
}

// postBatch is the reorder buffer of one PostList call: work requests
// run concurrently, completions are published to the CQ in posting
// order.
type postBatch struct {
	d          *Device
	cq         *CQ
	wrs        []*workReq
	comps      []Completion
	done       []bool
	next       int
	doorbellFn func()
}

func (d *Device) getBatch(cq *CQ, n int) *postBatch {
	var b *postBatch
	if ln := len(d.batchFree); ln > 0 {
		b = d.batchFree[ln-1]
		d.batchFree = d.batchFree[:ln-1]
	} else {
		b = &postBatch{d: d}
		b.doorbellFn = b.doorbell
	}
	b.cq = cq
	b.next = 0
	b.wrs = b.wrs[:0]
	b.comps = b.comps[:0]
	b.done = b.done[:0]
	for i := 0; i < n; i++ {
		b.comps = append(b.comps, Completion{})
		b.done = append(b.done, false)
	}
	return b
}

func (d *Device) putBatch(b *postBatch) {
	b.cq = nil
	for i := range b.wrs {
		b.wrs[i] = nil
	}
	d.batchFree = append(d.batchFree, b)
}

// doorbell rings once for the whole batch: every work request starts at
// the same instant with a single scheduled event. Slots pre-marked done
// (malformed WRs) are flushed here so a batch with no runnable requests
// still completes.
func (b *postBatch) doorbell() {
	for _, w := range b.wrs {
		w.startStep()
	}
	b.flush()
}

func (b *postBatch) complete(slot int, c Completion) {
	b.comps[slot] = c
	b.done[slot] = true
	b.flush()
}

// flush publishes the done prefix in posting order and recycles the
// batch once every slot has been delivered. The cq guard makes flush a
// no-op on a just-recycled batch (a chain that fails validation inside
// doorbell can complete — and recycle — before doorbell's own flush).
func (b *postBatch) flush() {
	if b.cq == nil {
		return
	}
	for b.next < len(b.comps) && b.done[b.next] {
		b.cq.ch.Send(b.comps[b.next])
		b.next++
	}
	if b.next == len(b.comps) {
		b.d.putBatch(b)
	}
}

// sendDelivery is a pooled pending delivery for the two-sided paths:
// every in-flight send costs one FIFO slot instead of one captured
// closure. All deliveries in one FIFO share one constant latency (IB send
// or TCP, one FIFO each), so pop order equals scheduling order (faulted
// links take a captured-closure path instead, since per-link delay breaks
// the constant-latency argument). A crash or partition of the
// endpoints — the message's sender and the queue's device — that happens
// while the message is in flight drops it at the delivery instant.
type sendDelivery struct {
	q   *RecvQueue
	msg Message
}

// sendReq is a callback send holding its Tx engine (Device.SendAsync):
// a pooled record whose done step, bound once, recycles it, runs the
// send's post-transmit half and then the caller's continuation.
type sendReq struct {
	d      *Device
	q      *RecvQueue
	buf    []byte
	start  sim.Time
	then   func()
	doneFn func()
}

func (d *Device) getSendReq() *sendReq {
	if ln := len(d.sendFree); ln > 0 {
		s := d.sendFree[ln-1]
		d.sendFree = d.sendFree[:ln-1]
		return s
	}
	s := &sendReq{d: d}
	s.doneFn = s.done
	return s
}

func (s *sendReq) done() {
	d, q, buf, start, then := s.d, s.q, s.buf, s.start, s.then
	s.q, s.buf, s.then = nil, nil, nil
	d.sendFree = append(d.sendFree, s)
	d.sent(q, buf, start, false)
	if then != nil {
		then()
	}
}

// lostInFlight reports whether a message from→to that was healthy at
// send time must be dropped at the delivery instant (endpoint crashed or
// link partitioned meanwhile). Loss rolls happen at send time, not here,
// so in-flight messages see exactly one PRNG draw each.
func (d *Device) lostInFlight(from, to int) bool {
	f := d.nw.flt
	if f == nil || f.Reachable(from, to) {
		return false
	}
	f.NoteDrop()
	return true
}

// deliver pops the oldest pending delivery of one constant-latency FIFO
// at its delivery instant; Attach binds it once per FIFO.
func (d *Device) deliver(q *sim.Queue[sendDelivery]) {
	dl := q.Pop()
	if d.lostInFlight(dl.msg.From, dl.q.dev.Node.ID) {
		dl.msg.Release()
		return
	}
	dl.q.post(dl.msg)
}
