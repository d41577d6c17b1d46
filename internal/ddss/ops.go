package ddss

import (
	"encoding/binary"
	"fmt"
	"time"

	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// lockRetry is the backoff between contended segment-lock attempts.
const lockRetry = 2 * time.Microsecond

// localAtomicCost is the cost of a CPU atomic on node-local shared state
// (the data-placement module's local fast path).
const localAtomicCost = 100 * time.Nanosecond

// step is one entry of an operation's script (see the package comment).
type step uint8

const (
	stepLock    step = iota // CAS the lock word 0 → caller; retried lockRetry later while held
	stepUnlock              // write a zero lock word
	stepWrite               // write the data at seg.dataOff(ver)
	stepRead                // read the data at seg.dataOff(ver)
	stepBump                // FAA the version word +1: ver = old+1
	stepVer                 // read the version word: ver
	stepCheck               // reread it; restart the script (from its stepVer) if it moved
	stepStamp               // write the step's start instant into the timestamp word
	stepCached              // Temporal: serve a fresh local copy and end, or go on
	stepRefresh             // Temporal: refresh the local copy from the data read
	stepWindow              // GetDelta: err unless want is retained; ver = want
	stepUntil               // WaitVersion: end once ver ≥ want, else rerun pollEvery later
)

// The scripts, indexed by coherence model.
var (
	putScripts = [...][]step{
		Null:     {stepWrite},
		Write:    {stepLock, stepWrite, stepUnlock},
		Read:     {stepWrite, stepBump},
		Strict:   {stepLock, stepWrite, stepBump, stepUnlock},
		Version:  {stepWrite, stepBump},
		Delta:    {stepBump, stepWrite},
		Temporal: {stepWrite, stepStamp},
	}
	getScripts = [...][]step{
		Null:     {stepRead},
		Write:    {stepRead},
		Read:     {stepVer, stepRead, stepCheck},
		Strict:   {stepLock, stepRead, stepVer, stepUnlock},
		Version:  {stepVer, stepRead, stepCheck},
		Delta:    {stepVer, stepRead},
		Temporal: {stepCached, stepRead, stepRefresh},
	}
	deltaScript = []step{stepVer, stepWindow, stepRead}
	waitScript  = []step{stepVer, stepUntil}
)

// Preformatted park reasons: parking must not allocate.
const (
	parkPut   = "ddss put"
	parkGet   = "ddss get"
	parkDelta = "ddss getdelta"
	parkWait  = "ddss waitversion"
)

// Op is the record one operation's chain runs on: each step is a
// one-sided operation issued into the record's handler CQ, or, when the
// segment is home, the CPU atomic or memory copy applied once its cost has
// elapsed, and each is scheduled where a process stepping through the
// script with Sleeps and blocking verbs calls would have scheduled its
// wake, so instants and sequence numbers are that process's. Its steps
// are bound on first use, so a steady-state operation allocates nothing.
// The zero value is ready to use; it serves one operation at a time and
// must not be copied once used.
type Op struct {
	h         *Handle
	buf       []byte // the put's data or the get's destination
	script    []step
	pc        int
	ver, want uint64
	poll      time.Duration
	// word stages the header word a step reads or writes.
	word [8]byte
	done func(error)

	runFn, localFn func()
	cq             *verbs.CQ

	// A blocking call's wait and result.
	await  sim.Await
	err    error
	waitFn func(error)
}

func (op *Op) bind() {
	op.runFn, op.localFn = op.run, op.local
	op.cq = verbs.HandlerCQ(func(c verbs.Completion) { op.stepped(c.Old, c.Err) })
	op.waitFn = func(err error) {
		op.err = err
		op.await.Done()
	}
}

// op checks a record out of the client's free list.
func (c *Client) op() *Op {
	if n := len(c.free); n > 0 {
		op := c.free[n-1]
		c.free = c.free[:n-1]
		return op
	}
	op := &Op{}
	op.bind()
	return op
}

// result recycles op, whose chain has ended, and returns the chain's
// result.
func (c *Client) result(op *Op) (uint64, error) {
	v, err := op.ver, op.err
	op.err = nil
	c.free = append(c.free, op)
	return v, err
}

// begin loads script onto op; the caller starts it.
func (op *Op) begin(h *Handle, buf []byte, script []step, done func(error)) {
	if op.runFn == nil {
		op.bind()
	}
	op.h, op.buf, op.script, op.done = h, buf, script, done
	op.pc, op.ver = 0, 0
}

// start runs script on op after the IPC charge.
func (h *Handle) start(op *Op, buf []byte, script []step, done func(error)) {
	op.begin(h, buf, script, done)
	h.c.dev.Env().After(IPCOverhead, op.runFn)
}

// isLocal reports whether the segment lives on the caller's node; the
// data-placement module then uses memory operations instead of the wire.
func (h *Handle) isLocal() bool { return h.seg.home == h.c.dev.Node.ID }

// run starts the current step. A step that moves bytes goes one-sided
// into the handler CQ, or to local after its cost when the segment is
// home; a decision step takes no time and goes on inline.
func (op *Op) run() {
	h := op.h
	env := h.c.dev.Env()
	s := op.script[op.pc]
	switch s {
	case stepUnlock:
		op.word = [8]byte{}
	case stepStamp:
		binary.LittleEndian.PutUint64(op.word[:], uint64(env.Now()))
	case stepCached:
		if cc := h.c.cache[h.seg.key]; cc != nil && time.Duration(env.Now()-cc.fetched) < DefaultTTL {
			env.After(h.c.dev.Params().CopyTime(len(op.buf)), op.localFn)
			return
		}
		op.next()
		return
	case stepRefresh:
		// The cached copy's backing array is reused across TTL expiries,
		// so steady-state refreshes do not allocate.
		cc := h.c.cache[h.seg.key]
		if cc == nil {
			cc = &cachedCopy{}
			h.c.cache[h.seg.key] = cc
		}
		cc.data = append(cc.data[:0], op.buf...)
		cc.fetched = env.Now()
		op.next()
		return
	case stepWindow:
		if op.want > op.ver || op.want+DeltaSlots <= op.ver {
			op.finish(fmt.Errorf("ddss: getdelta %q: version %d not retained (current %d)", h.seg.key, op.want, op.ver))
			return
		}
		op.ver = op.want
		op.next()
		return
	case stepUntil:
		if op.ver >= op.want {
			op.next()
			return
		}
		op.pc = 0
		env.After(op.poll, op.runFn)
		return
	}
	kind, off, b := op.operand(s)
	if h.isLocal() {
		cost := localAtomicCost
		if b != nil {
			cost = h.c.dev.Params().CopyTime(len(b))
		}
		env.After(cost, op.localFn)
		return
	}
	// The request sets every field a step may need; the verbs layer
	// consults only kind's (Src, Dst, Swap or Delta).
	h.c.dev.Issue(op.cq, verbs.WR{Op: kind, Target: h.seg.mr.Addr(), Off: off, Src: b, Dst: b, Swap: op.me(), Delta: 1})
}

// operand is what step s does to the segment: the one-sided operation,
// the offset, and the bytes it moves — the caller's buffer or the staged
// header word; nil for an atomic (a lock CAS of 0 → me, or a bump of 1).
func (op *Op) operand(s step) (kind string, off int, b []byte) {
	switch s {
	case stepLock:
		return verbs.OpCAS, hdrLock, nil
	case stepUnlock:
		return verbs.OpWrite, hdrLock, op.word[:]
	case stepWrite:
		return verbs.OpWrite, op.h.seg.dataOff(op.ver), op.buf
	case stepRead:
		return verbs.OpRead, op.h.seg.dataOff(op.ver), op.buf
	case stepBump:
		return verbs.OpFAA, hdrVersion, nil
	case stepStamp:
		return verbs.OpWrite, hdrTS, op.word[:]
	}
	return verbs.OpRead, hdrVersion, op.word[:] // stepVer, stepCheck
}

// me is the lock word's value while the caller's node holds it.
func (op *Op) me() uint64 { return uint64(op.h.c.dev.Node.ID + 1) }

// local applies the current step at home once its cost has elapsed.
func (op *Op) local() {
	h := op.h
	s := op.script[op.pc]
	if s == stepCached {
		copy(op.buf, h.c.cache[h.seg.key].data)
		op.finish(nil)
		return
	}
	kind, off, b := op.operand(s)
	mem := h.seg.mr.Bytes()[off:]
	var old uint64
	switch kind {
	case verbs.OpRead:
		copy(b, mem)
	case verbs.OpWrite:
		copy(mem, b)
	case verbs.OpCAS:
		if old = binary.LittleEndian.Uint64(mem); old == 0 {
			binary.LittleEndian.PutUint64(mem, op.me())
		}
	case verbs.OpFAA:
		old = binary.LittleEndian.Uint64(mem)
		binary.LittleEndian.PutUint64(mem, old+1)
	}
	op.stepped(old, nil)
}

// stepped continues the chain when the current step ends; old is what an
// atomic found.
func (op *Op) stepped(old uint64, err error) {
	if err != nil {
		op.finish(err)
		return
	}
	switch op.script[op.pc] {
	case stepLock:
		if old != 0 {
			op.h.c.dev.Env().After(lockRetry, op.runFn)
			return
		}
	case stepBump:
		op.ver = old + 1
	case stepVer:
		op.ver = binary.LittleEndian.Uint64(op.word[:])
	case stepCheck:
		if binary.LittleEndian.Uint64(op.word[:]) != op.ver {
			op.pc = 0 // a torn read: the only script with a check starts with its stepVer
			op.run()
			return
		}
	}
	op.next()
}

// next runs the step after the current one, or ends the chain.
func (op *Op) next() {
	if op.pc++; op.pc == len(op.script) {
		op.finish(nil)
		return
	}
	op.run()
}

// finish ends the chain; done is its tail call. A failed operation
// reports version 0.
func (op *Op) finish(err error) {
	if err != nil {
		op.ver = 0
	}
	done := op.done
	op.h, op.buf, op.script, op.done = nil, nil, nil, nil
	done(err)
}

// Put writes data into the segment under its coherence model and returns
// the version the write produced (meaningful for Read, Strict, Version
// and Delta).
func (h *Handle) Put(p *sim.Proc, data []byte) (uint64, error) {
	if len(data) > h.seg.size {
		return 0, fmt.Errorf("ddss: put %q: %d bytes exceed segment size %d", h.seg.key, len(data), h.seg.size)
	}
	op := h.c.op()
	h.start(op, data, putScripts[h.seg.coh], op.waitFn)
	op.await.Wait(p, parkPut)
	return h.c.result(op)
}

// Get reads up to len(buf) bytes from the segment under its coherence
// model, returning the observed version (where meaningful).
func (h *Handle) Get(p *sim.Proc, buf []byte) (uint64, error) {
	op := h.c.op()
	h.GetAsync(buf, op, op.waitFn)
	op.await.Wait(p, parkGet)
	return h.c.result(op)
}

// GetAsync is Get as an event chain on op, with no process: done gets
// Get's error at the instant Get would have returned. A get refused before
// any virtual time passes (an oversized buffer) calls done before
// GetAsync returns.
func (h *Handle) GetAsync(buf []byte, op *Op, done func(error)) {
	if len(buf) > h.seg.size {
		done(fmt.Errorf("ddss: get %q: %d bytes exceed segment size %d", h.seg.key, len(buf), h.seg.size))
		return
	}
	h.start(op, buf, getScripts[h.seg.coh], done)
}

// GetDelta reads the retained version v of a Delta segment; it fails if
// the version has been overwritten (older than DeltaSlots behind) or not
// yet produced.
func (h *Handle) GetDelta(p *sim.Proc, buf []byte, v uint64) error {
	if h.seg.coh != Delta {
		return fmt.Errorf("ddss: getdelta on %v segment", h.seg.coh)
	}
	op := h.c.op()
	op.want = v
	h.start(op, buf, deltaScript, op.waitFn)
	op.await.Wait(p, parkDelta)
	_, err := h.c.result(op)
	return err
}

// WaitVersion blocks until the segment's version reaches at least v,
// polling the version word with one-sided reads (local reads when the
// segment is home). It returns the observed version. This is the
// substrate's wait() primitive: services use it to block on a producer's
// next update without any producer-side involvement.
func (h *Handle) WaitVersion(p *sim.Proc, v uint64, pollEvery time.Duration) (uint64, error) {
	if pollEvery <= 0 {
		pollEvery = 50 * time.Microsecond
	}
	op := h.c.op()
	op.begin(h, nil, waitScript, op.waitFn)
	op.want, op.poll = v, pollEvery
	op.run() // no IPC charge
	op.await.Wait(p, parkWait)
	return h.c.result(op)
}
