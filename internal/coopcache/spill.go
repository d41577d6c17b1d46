package coopcache

import "ngdc/internal/verbs"

// spillRing is one node's fixed-capacity demotion queue.
type spillRing struct {
	buf     [spillQueueDepth]spillJob
	head, n int
}

type spillJob struct{ doc, slot int32 }

func (q *spillRing) push(j spillJob) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = j
	q.n++
	return true
}

func (q *spillRing) pop() (spillJob, bool) {
	if q.n == 0 {
		return spillJob{}, false
	}
	j := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return j, true
}

// enqueueSpill hands an evicted victim to node n's demotion queue,
// starting the node's demotion chain at this instant if none is running.
// false when spill is off or the ring is full (the caller invalidates
// eagerly — a plain drop).
func (t *Tier) enqueueSpill(n int, doc, slot int32) bool {
	if t.spill == nil {
		return false
	}
	m := &t.demoters[n]
	if !m.q.push(spillJob{doc: doc, slot: slot}) {
		t.stats.SpillDrops++
		return false
	}
	if !m.busy {
		m.busy = true
		t.env.After(0, m.nextFn)
	}
	return true
}

// demoter is node n's demotion chain: it drains the node's ring one job
// at a time, each step a completion callback at the instant — and with
// the event sequence number — of the blocking call it replaces, and stops
// when the ring is empty until enqueueSpill starts it again. One record
// per node, bound once, so demotions allocate nothing in steady state.
//
// A job demotes one victim: claim a spill slot on a rack neighbor
// (reclaiming the neighbor's oldest spill resident when the region is
// full), write the bytes, and swing the victim's directory word from the
// evicted slot to the spill slot with one CAS. Every failure mode — no
// viable neighbor, unreachable target, lost redirect — degrades to the
// plain drop the tier did before spill existed; only a non-degradable op
// failure is recorded (Tier.fail).
type demoter struct {
	t    *Tier
	n    int
	q    spillRing
	busy bool // a job is in flight, or the event that starts one is queued

	// The job in flight.
	doc int
	old Entry // the victim's word: its evicted placement on n
	tgt int   // the spill target and the slot claimed on it
	ss  int32
	ne  Entry // the spill placement's word
	buf []byte
	dir dirOp

	nextFn, reclaimedFn, droppedFn, redirectedFn func()
	writeCQ                                      *verbs.CQ
}

func (m *demoter) bind(t *Tier, n int) {
	m.t, m.n, m.buf = t, n, make([]byte, TierDocBytes)
	m.nextFn, m.reclaimedFn, m.droppedFn, m.redirectedFn = m.next, m.reclaimed, m.dropped, m.redirected
	m.writeCQ = verbs.HandlerCQ(m.written)
}

// next starts the oldest queued job, or stops the chain.
func (m *demoter) next() {
	j, ok := m.q.pop()
	if !ok {
		m.busy = false
		return
	}
	t, n := m.t, m.n
	doc := int(j.doc)
	m.doc, m.old = doc, PackEntry(n, int(j.slot))
	if t.docNode[doc] != -1 {
		if t.docNode[doc] == int32(n) && t.docSlot[doc] == j.slot {
			// Re-installed at the very same placement while queued: the old
			// word IS the live word — leave it alone, on to the next job.
			m.next()
			return
		}
		// The doc was re-installed elsewhere while queued; our stale word
		// is whatever the installer raced against. Just take it out.
		m.drop()
		return
	}
	tgt := t.pickSpillTarget(n)
	if tgt < 0 {
		t.stats.SpillDrops++
		m.drop()
		return
	}
	ss, ok := t.spill[tgt].Claim()
	odDoc := int32(-1)
	if !ok {
		ss, ok = t.spill[tgt].Reclaim()
		if ok {
			if od := t.slotDoc[tgt][t.mainSlots[tgt]+ss]; od >= 0 {
				// Drop the oldest spill resident to make room. Only the
				// metadata moves at this instant; its directory word is
				// invalidated below, after the slot is ours — issuing the
				// CAS first would open a window where a racing installer
				// rebinds the victim while this demotion still assumes it
				// owns the claim.
				t.stats.SpillReclaims++
				t.docNode[od], t.docSlot[od] = -1, -1
				odDoc = od
			}
		}
	}
	if !ok {
		t.stats.SpillDrops++
		m.drop()
		return
	}
	ss += t.mainSlots[tgt] // the region index as a slab slot
	// Claim the placement at this decision instant, before any costed
	// op, so concurrent readers validate consistently.
	t.slotDoc[tgt][ss] = j.doc
	t.docNode[doc], t.docSlot[doc] = int32(tgt), ss
	m.tgt, m.ss = tgt, ss
	if odDoc >= 0 {
		// The reclaimed resident's word still names this slot; take it
		// out so lookups stop chasing a placement that now holds doc. (A
		// reader that races this clear fails slab validation anyway.)
		t.clearEntry(&m.dir, t.devs[n], int(odDoc), PackEntry(tgt, int(ss)), m.reclaimedFn)
		return
	}
	m.write()
}

func (m *demoter) reclaimed() {
	if err := m.t.cleared(&m.dir); err != nil {
		m.end(err)
		return
	}
	m.write()
}

func (m *demoter) write() {
	t := m.t
	t.devs[m.n].Issue(m.writeCQ, verbs.WR{Op: verbs.OpWrite, Target: t.slabs[m.tgt], Off: int(m.ss) * TierDocBytes, Src: m.buf})
}

// written runs at the spill write's completion instant.
func (m *demoter) written(comp verbs.Completion) {
	t := m.t
	if err := comp.Err; err != nil {
		f := faultOf(err)
		if f == faultNone {
			m.end(err)
			return
		}
		if f == faultPeer {
			t.dead[m.tgt] = true
		}
		t.stats.DeadFallbacks++
		t.stats.SpillDrops++
		t.dropIfAt(m.doc, m.tgt, m.ss)
		m.drop()
		return
	}
	m.ne = PackEntry(m.tgt, int(m.ss))
	t.dir.mutate(&m.dir, dirRedirect, t.devs[m.n], m.doc, m.old, m.ne, m.redirectedFn)
}

// redirected runs when the redirect CAS (with its retry, undo and replica
// CASes) completes.
func (m *demoter) redirected() {
	t, op := m.t, &m.dir
	if err := op.err; err != nil {
		f := faultOf(err)
		if f == faultNone {
			m.end(err)
			return
		}
		if f == faultPeer {
			t.dead[t.dir.HomeShard(m.doc)] = true
		}
		t.stats.DeadFallbacks++
		t.stats.SpillDrops++
		t.dropIfAt(m.doc, m.tgt, m.ss)
	} else if op.won || op.prev == m.ne {
		// Won outright, or a concurrent refresher already published the
		// identical placement — either way the spill copy is live.
		t.stats.Spills++
	} else {
		// The word changed under us (cleared by a racing reader, or the
		// doc was reinstalled): undo the claim, the demotion degrades to a
		// drop.
		t.stats.SpillRedirectLost++
		t.dropIfAt(m.doc, m.tgt, m.ss)
	}
	m.next()
}

// drop degrades the job to a plain drop: clear the victim's word.
func (m *demoter) drop() {
	m.t.clearEntry(&m.dir, m.t.devs[m.n], m.doc, m.old, m.droppedFn)
}

func (m *demoter) dropped() { m.end(m.t.cleared(&m.dir)) }

// end finishes the job in flight and starts the next one.
func (m *demoter) end(err error) {
	if err != nil {
		m.t.fail(err)
	}
	m.next()
}

// pickSpillTarget ranks node n's live rack neighbors by spill-region
// free slots, then free main slots, preferring the lowest index on ties —
// the per-rack pressure hint. Falls back to n's own region when no
// neighbor qualifies; -1 degrades the demotion to a drop.
func (t *Tier) pickSpillTarget(n int) int {
	best, bestFree, bestHead := -1, -1, -1
	for _, t32 := range t.rackPeers[t.rackOf[n]] {
		c := int(t32)
		if c == n || t.dead[c] {
			continue
		}
		free := t.spill[c].Free()
		head := t.main[c].Free()
		if free > bestFree || (free == bestFree && head > bestHead) {
			best, bestFree, bestHead = c, free, head
		}
	}
	if best < 0 && !t.dead[n] {
		best = n
	}
	return best
}
