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

// isLocal reports whether the segment lives on the caller's node; the
// data-placement module then uses memory operations instead of the wire.
func (h *Handle) isLocal() bool { return h.seg.home == h.c.dev.Node.ID }

// write moves data into the segment: an RDMA write remotely, a memory
// copy locally.
func (h *Handle) write(p *sim.Proc, off int, data []byte) error {
	if h.isLocal() {
		p.Sleep(h.c.dev.Params().CopyTime(len(data)))
		copy(h.seg.mr.Bytes()[off:off+len(data)], data)
		return nil
	}
	return h.c.dev.Write(p, h.seg.mr.Addr(), off, data)
}

// read moves data out of the segment: an RDMA read remotely, a memory
// copy locally.
func (h *Handle) read(p *sim.Proc, buf []byte, off int) error {
	if h.isLocal() {
		p.Sleep(h.c.dev.Params().CopyTime(len(buf)))
		copy(buf, h.seg.mr.Bytes()[off:off+len(buf)])
		return nil
	}
	return h.c.dev.Read(p, buf, h.seg.mr.Addr(), off)
}

// fetchAdd bumps a header word, using a CPU atomic locally.
func (h *Handle) fetchAdd(p *sim.Proc, off int, delta uint64) (uint64, error) {
	if h.isLocal() {
		p.Sleep(localAtomicCost)
		old := h.seg.mr.Uint64At(off)
		h.seg.mr.PutUint64At(off, old+delta)
		return old, nil
	}
	return h.c.dev.FetchAdd(p, h.seg.mr.Addr(), off, delta)
}

// compareSwap CASes a header word, using a CPU atomic locally.
func (h *Handle) compareSwap(p *sim.Proc, off int, compare, swap uint64) (uint64, error) {
	if h.isLocal() {
		p.Sleep(localAtomicCost)
		old := h.seg.mr.Uint64At(off)
		if old == compare {
			h.seg.mr.PutUint64At(off, swap)
		}
		return old, nil
	}
	return h.c.dev.CompareSwap(p, h.seg.mr.Addr(), off, compare, swap)
}

// acquireLock spins on the segment lock word with one-sided CAS.
func (h *Handle) acquireLock(p *sim.Proc) error {
	me := uint64(h.c.dev.Node.ID + 1)
	for {
		old, err := h.compareSwap(p, hdrLock, 0, me)
		if err != nil {
			return err
		}
		if old == 0 {
			return nil
		}
		p.Sleep(lockRetry)
	}
}

// releaseLock clears the lock word with a one-sided write.
func (h *Handle) releaseLock(p *sim.Proc) error {
	return h.writeU64(p, hdrLock, 0)
}

// writeU64 writes a header word one-sidedly, staging the value in a
// pooled scratch word (the verbs layer consumes it before returning).
func (h *Handle) writeU64(p *sim.Proc, off int, v uint64) error {
	b := h.c.getHdr()
	binary.LittleEndian.PutUint64(b, v)
	err := h.write(p, off, b)
	h.c.putHdr(b)
	return err
}

// readU64 reads a header word one-sidedly into a pooled scratch word.
func (h *Handle) readU64(p *sim.Proc, off int) (uint64, error) {
	b := h.c.getHdr()
	if err := h.read(p, b, off); err != nil {
		h.c.putHdr(b)
		return 0, err
	}
	v := binary.LittleEndian.Uint64(b)
	h.c.putHdr(b)
	return v, nil
}

// Put writes data into the segment under its coherence model and returns
// the version the write produced (meaningful for Version/Delta). The
// one-write models (Null, Write) run PutAsync and park once; the others
// step through their operations.
func (h *Handle) Put(p *sim.Proc, data []byte) (uint64, error) {
	if chained(h.seg.coh) {
		op := h.c.puts.get()
		if op.waitFn == nil {
			op.bind()
		}
		h.PutAsync(data, op, op.waitFn)
		op.await.Wait(p, parkPut)
		err := op.err
		h.c.puts.put(op)
		return 0, err
	}
	if err := h.checkPut(data); err != nil {
		return 0, err
	}
	h.c.ss.Ops++
	p.Sleep(IPCOverhead)
	switch h.seg.coh {
	case Strict:
		// Strict also publishes a version so readers can detect in-place
		// updates.
		if err := h.acquireLock(p); err != nil {
			return 0, err
		}
		if err := h.write(p, hdrSize, data); err != nil {
			return 0, err
		}
		old, err := h.fetchAdd(p, hdrVersion, 1)
		if err != nil {
			return 0, err
		}
		return old + 1, h.releaseLock(p)

	case Read, Version:
		// Write data first, then publish the new version; readers
		// validate the version around their read.
		if err := h.write(p, hdrSize, data); err != nil {
			return 0, err
		}
		old, err := h.fetchAdd(p, hdrVersion, 1)
		return old + 1, err

	case Delta:
		// Claim the next version slot, then fill it.
		old, err := h.fetchAdd(p, hdrVersion, 1)
		if err != nil {
			return 0, err
		}
		v := old + 1
		return v, h.write(p, h.seg.dataOff(v), data)

	case Temporal:
		if err := h.write(p, hdrSize, data); err != nil {
			return 0, err
		}
		return 0, h.writeU64(p, hdrTS, uint64(p.Now()))

	default:
		return 0, fmt.Errorf("ddss: unknown coherence %v", h.seg.coh)
	}
}

func (h *Handle) checkPut(data []byte) error {
	if h.seg.freed {
		return fmt.Errorf("ddss: put %q: segment freed", h.seg.key)
	}
	if len(data) > h.seg.size {
		return fmt.Errorf("ddss: put %q: %d bytes exceed segment size %d", h.seg.key, len(data), h.seg.size)
	}
	return nil
}

const parkPut = "ddss put"

// putStep is a PutOp's operation in flight.
type putStep uint8

const (
	stepLock   putStep = iota // CAS the segment lock word from 0 to the caller
	stepData                  // write the data
	stepUnlock                // write the lock word back to 0
)

// PutOp is one caller's record for PutAsync, its steps bound on first
// use, so a steady-state put allocates nothing. The zero value is ready
// to use; it serves one put at a time and must not be copied once used.
type PutOp struct {
	h    *Handle
	data []byte
	done func(error)
	step putStep
	// unlock is the zero word the unlock write sends.
	unlock [8]byte

	ipcFn, lockFn, localFn func()
	cq                     *verbs.CQ

	// The blocking Put's wait and result.
	await  sim.Await
	err    error
	waitFn func(error)
}

func (op *PutOp) bind() {
	op.ipcFn, op.localFn = op.ipcDone, op.local
	op.lockFn = func() { op.run(stepLock) }
	op.cq = verbs.HandlerCQ(func(c verbs.Completion) { op.stepped(c.Old, c.Err) })
	op.waitFn = func(err error) {
		op.err = err
		op.await.Done()
	}
}

// PutAsync is Put of a Null or Write segment as an event chain on op: the
// IPC charge; for Write, the segment-lock CAS, retried lockRetry later
// while another client holds the lock; the data write; for Write, the
// unlock write. Each operation is one-sided, or a CPU atomic or memory
// copy when the segment is home, and each is scheduled where a process
// stepping through them with Sleeps and blocking verbs would have
// scheduled its wake, so instants and sequence numbers are that
// process's. done gets the put's error at the instant the last operation
// ends; a put refused before any virtual time passes (freed segment,
// oversized data, a model other than Null and Write) calls done before
// PutAsync returns. A failed data write leaves the lock held, as the
// process did.
func (h *Handle) PutAsync(data []byte, op *PutOp, done func(error)) {
	if op.ipcFn == nil {
		op.bind()
	}
	err := h.checkPut(data)
	if err == nil && !chained(h.seg.coh) {
		err = fmt.Errorf("ddss: put %q: %v is not a one-write model", h.seg.key, h.seg.coh)
	}
	if err != nil {
		done(err)
		return
	}
	h.c.ss.Ops++
	op.h, op.data, op.done = h, data, done
	h.c.dev.Env().After(IPCOverhead, op.ipcFn)
}

// ipcDone runs when the IPC charge ends.
func (op *PutOp) ipcDone() {
	if op.h.seg.coh == Write {
		op.run(stepLock)
		return
	}
	op.run(stepData)
}

// run starts step s: one-sided into the handler CQ, or, when the segment
// is home, after the CPU atomic's or the memory copy's cost.
func (op *PutOp) run(s putStep) {
	op.step = s
	h := op.h
	env, target := h.c.dev.Env(), h.seg.mr.Addr()
	if s == stepLock {
		if h.isLocal() {
			env.After(localAtomicCost, op.localFn)
			return
		}
		h.c.dev.Issue(op.cq, verbs.WR{Op: verbs.OpCAS, Target: target, Off: hdrLock, Swap: op.me()})
		return
	}
	off, src := op.write()
	if h.isLocal() {
		env.After(h.c.dev.Params().CopyTime(len(src)), op.localFn)
		return
	}
	h.c.dev.Issue(op.cq, verbs.WR{Op: verbs.OpWrite, Target: target, Off: off, Src: src})
}

// write is where the current write step writes, and what.
func (op *PutOp) write() (off int, src []byte) {
	if op.step == stepUnlock {
		return hdrLock, op.unlock[:]
	}
	return hdrSize, op.data
}

// me is the lock word's value while the caller's node holds it.
func (op *PutOp) me() uint64 { return uint64(op.h.c.dev.Node.ID + 1) }

// local applies a home step once its cost has elapsed.
func (op *PutOp) local() {
	mr := op.h.seg.mr
	var old uint64
	if op.step == stepLock {
		if old = mr.Uint64At(hdrLock); old == 0 {
			mr.PutUint64At(hdrLock, op.me())
		}
	} else {
		off, src := op.write()
		copy(mr.Bytes()[off:], src)
	}
	op.stepped(old, nil)
}

// stepped continues the chain when the current step ends; old is the
// lock word a lock CAS found.
func (op *PutOp) stepped(old uint64, err error) {
	switch {
	case err != nil:
		op.finish(err)
	case op.step == stepLock && old != 0:
		op.h.c.dev.Env().After(lockRetry, op.lockFn)
	case op.step == stepLock:
		op.run(stepData)
	case op.step == stepData && op.h.seg.coh == Write:
		op.run(stepUnlock)
	default:
		op.finish(nil)
	}
}

// finish ends the chain; done is its tail call.
func (op *PutOp) finish(err error) {
	done := op.done
	op.h, op.data, op.done = nil, nil, nil
	done(err)
}

// Get reads up to len(buf) bytes from the segment under its coherence
// model, returning the observed version (where meaningful). The
// single-read models (Null, Write) run GetAsync and park once.
func (h *Handle) Get(p *sim.Proc, buf []byte) (uint64, error) {
	if chained(h.seg.coh) {
		g := h.c.gets.get()
		if g.waitFn == nil {
			g.bind()
		}
		h.GetAsync(buf, g, g.waitFn)
		g.await.Wait(p, parkGet)
		err := g.err
		h.c.gets.put(g)
		return 0, err
	}
	if err := h.checkGet(buf); err != nil {
		return 0, err
	}
	h.c.ss.Ops++
	p.Sleep(IPCOverhead)
	switch h.seg.coh {
	case Strict:
		if err := h.acquireLock(p); err != nil {
			return 0, err
		}
		if err := h.read(p, buf, hdrSize); err != nil {
			return 0, err
		}
		v, err := h.readU64(p, hdrVersion)
		if err != nil {
			return 0, err
		}
		return v, h.releaseLock(p)

	case Read, Version:
		// Validate the version around the data read; retry torn reads.
		for {
			v1, err := h.readU64(p, hdrVersion)
			if err != nil {
				return 0, err
			}
			if err := h.read(p, buf, hdrSize); err != nil {
				return 0, err
			}
			v2, err := h.readU64(p, hdrVersion)
			if err != nil {
				return 0, err
			}
			if v1 == v2 {
				return v2, nil
			}
		}

	case Delta:
		v, err := h.readU64(p, hdrVersion)
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return 0, h.read(p, buf, h.seg.dataOff(0))
		}
		return v, h.read(p, buf, h.seg.dataOff(v))

	case Temporal:
		cc := h.c.cache[h.seg.key]
		if cc != nil && time.Duration(p.Now()-cc.fetched) < DefaultTTL {
			// Serve from the node-local copy: only a memory copy.
			p.Sleep(h.c.dev.Params().CopyTime(len(buf)))
			copy(buf, cc.data)
			return 0, nil
		}
		if err := h.read(p, buf, hdrSize); err != nil {
			return 0, err
		}
		// Refresh in place: the cached copy's backing array is reused
		// across TTL expiries, so steady-state refreshes do not allocate.
		if cc == nil {
			cc = &cachedCopy{}
			h.c.cache[h.seg.key] = cc
		}
		cc.data = append(cc.data[:0], buf...)
		cc.fetched = p.Now()
		return 0, nil

	default:
		return 0, fmt.Errorf("ddss: unknown coherence %v", h.seg.coh)
	}
}

func (h *Handle) checkGet(buf []byte) error {
	if h.seg.freed {
		return fmt.Errorf("ddss: get %q: segment freed", h.seg.key)
	}
	if len(buf) > h.seg.size {
		return fmt.Errorf("ddss: get %q: %d bytes exceed segment size %d", h.seg.key, len(buf), h.seg.size)
	}
	return nil
}

// chained reports whether coh is a model whose get is one data read and
// whose put is one data write (under the segment lock for Write): the
// models GetAsync and PutAsync serve.
func chained(coh Coherence) bool { return coh == Null || coh == Write }

const parkGet = "ddss get"

// GetOp is one caller's record for GetAsync, its steps bound on first
// use, so a steady-state get allocates nothing. The zero value is ready
// to use; it serves one get at a time and must not be copied once used.
type GetOp struct {
	h    *Handle
	buf  []byte
	done func(error)

	ipcFn, copyFn func()
	readCQ        *verbs.CQ

	// The blocking Get's wait and result.
	await  sim.Await
	err    error
	waitFn func(error)
}

func (g *GetOp) bind() {
	g.ipcFn, g.copyFn = g.ipcDone, g.copied
	g.readCQ = verbs.HandlerCQ(func(c verbs.Completion) { g.finish(c.Err) })
	g.waitFn = func(err error) {
		g.err = err
		g.await.Done()
	}
}

// GetAsync is Get of a Null or Write segment as an event chain on g: the
// IPC charge, then the data read — one-sided, or a memory copy when the
// segment is home — each at the instant the blocking Get runs it, with no
// process. done gets Get's error at the instant Get would have returned;
// a get refused before any virtual time passes (freed segment, oversized
// buffer, a model that needs more than one read) calls done before
// GetAsync returns.
func (h *Handle) GetAsync(buf []byte, g *GetOp, done func(error)) {
	if g.ipcFn == nil {
		g.bind()
	}
	err := h.checkGet(buf)
	if err == nil && !chained(h.seg.coh) {
		err = fmt.Errorf("ddss: get %q: %v is not a single-read model", h.seg.key, h.seg.coh)
	}
	if err != nil {
		done(err)
		return
	}
	h.c.ss.Ops++
	g.h, g.buf, g.done = h, buf, done
	h.c.dev.Env().After(IPCOverhead, g.ipcFn)
}

// ipcDone runs when the IPC charge ends: read the data, as read does.
func (g *GetOp) ipcDone() {
	h := g.h
	if h.isLocal() {
		h.c.dev.Env().After(h.c.dev.Params().CopyTime(len(g.buf)), g.copyFn)
		return
	}
	h.c.dev.Issue(g.readCQ, verbs.WR{Op: verbs.OpRead, Target: h.seg.mr.Addr(), Off: hdrSize, Dst: g.buf})
}

func (g *GetOp) copied() {
	copy(g.buf, g.h.seg.mr.Bytes()[hdrSize:hdrSize+len(g.buf)])
	g.finish(nil)
}

// finish ends the chain; done is its tail call.
func (g *GetOp) finish(err error) {
	done := g.done
	g.h, g.buf, g.done = nil, nil, nil
	done(err)
}

// GetDelta reads the retained version v of a Delta segment; it fails if
// the version has been overwritten (older than DeltaSlots behind) or not
// yet produced.
func (h *Handle) GetDelta(p *sim.Proc, buf []byte, v uint64) error {
	if h.seg.coh != Delta {
		return fmt.Errorf("ddss: getdelta on %v segment", h.seg.coh)
	}
	if h.seg.freed {
		return fmt.Errorf("ddss: getdelta %q: segment freed", h.seg.key)
	}
	h.c.ss.Ops++
	p.Sleep(IPCOverhead)
	cur, err := h.readU64(p, hdrVersion)
	if err != nil {
		return err
	}
	if v > cur || v+DeltaSlots <= cur {
		return fmt.Errorf("ddss: getdelta %q: version %d not retained (current %d)", h.seg.key, v, cur)
	}
	return h.read(p, buf, h.seg.dataOff(v))
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
	for {
		if h.seg.freed {
			return 0, fmt.Errorf("ddss: waitversion %q: segment freed", h.seg.key)
		}
		cur, err := h.readU64(p, hdrVersion)
		if err != nil {
			return 0, err
		}
		if cur >= v {
			return cur, nil
		}
		p.Sleep(pollEvery)
	}
}
