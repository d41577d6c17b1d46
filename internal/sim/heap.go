package sim

import "math/bits"

// eventHeap is the engine's pending-event queue: a hand-specialized
// 4-ary min-heap of event values ordered by (at, seq). Compared with
// container/heap over a slice of *event it removes the interface boxing
// and indirect Less/Swap dispatch on every sift step, halves the tree
// depth (4 children per node), and — because events live inline in the
// slice — scheduling allocates nothing once the backing array has grown
// to the simulation's high-water mark.
//
// It is the whole queue, not one tier of one: a cluster cell's pending
// population follows its driver count, not its node count, and the
// deepest queue any workload builds is 98 events (DESIGN.md, "Engine
// internals", has the per-workload depths and the criterion for
// bringing a tiered queue back).
//
// At those depths a pop costs compares, not cache misses, and the
// compares that matter are the ones between siblings: which of four
// events is smallest changes from pop to pop, so a branch on it is
// mispredicted about every other time. A node with all four children
// therefore picks the smallest by a tournament — (c0 vs c1), (c2 vs c3),
// winner vs winner — in which each compare is a borrow (0 or 1) that is
// added to an index, never branched on. A node with fewer children keeps
// the loop. The compare against the event being sifted, and push's
// sift-up, stay branches: a re-armed event almost always lands near the
// bottom, so both go the same way nearly every time and cost nothing
// when predicted. Both forms pick the same child, so the arrays, and
// every pop, are those of the plain loop.
//
// The engine never cancels a queued event (stale process wakeups are
// skipped at pop time), so no per-event index bookkeeping is needed.
type eventHeap struct {
	ev []event
}

// heapShrinkFloor is the capacity at or below which the backing array
// never shrinks (hysteresis against tiny churn).
const heapShrinkFloor = 1024

// before is the heap order: earlier virtual time first, FIFO by seq
// among events at the same instant. seq strictly increases per Env, so
// two events never compare equal.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// less is before as a number, 1 or 0, for the tournament, which adds it
// to an index instead of branching on it. (at, seq) is read as one
// unsigned 128-bit number with at as the high word — virtual time is
// never negative, so the conversion keeps its order — and a is below b
// exactly when a − b borrows out of the high word. It is the same order
// spelled twice, because before inlines into push and this form would
// not; TestEventOrderForms pins the two equal at the edges.
func less(a, b *event) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

func (h *eventHeap) len() int { return len(h.ev) }

// top returns a pointer to the minimum event. It must not be retained
// across a push or pop.
func (h *eventHeap) top() *event { return &h.ev[0] }

// push inserts ev, sifting the hole up rather than swapping.
func (h *eventHeap) push(ev event) {
	h.ev = append(h.ev, ev)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h.ev[p]) {
			break
		}
		h.ev[i] = h.ev[p]
		i = p
	}
	h.ev[i] = ev
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	min := h.ev[0]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev[n] = event{} // release *Proc / func() references to the GC
	h.ev = h.ev[:n]
	if n > 0 {
		h.siftDownFrom(0, last)
	}
	h.maybeShrink()
	return min
}

// maybeShrink halves the backing array when the population has fallen
// below a quarter of its capacity (down to a floor), so a burst's
// high-water storage is released once the queue settles.
func (h *eventHeap) maybeShrink() {
	if cap(h.ev) > heapShrinkFloor && len(h.ev) < cap(h.ev)/4 {
		ns := make([]event, len(h.ev), cap(h.ev)/2)
		copy(ns, h.ev)
		h.ev = ns
	}
}

// siftDownFrom re-inserts x starting from the hole at i, moving the
// hole toward the smallest child until x fits.
func (h *eventHeap) siftDownFrom(i int, x event) {
	ev := h.ev
	n := len(ev)
	for {
		first := i<<2 + 1
		var best int
		if first+4 <= n {
			// The tournament: a is 0 or 1, b is 2 or 3, and the final
			// borrow, negated into a mask, selects between them. The
			// masks on the indexes only drop the bounds checks.
			c := (*[4]event)(ev[first : first+4])
			a := less(&c[1], &c[0])
			b := 2 + less(&c[3], &c[2])
			w := a ^ (a^b)&-less(&c[b&3], &c[a&1])
			best = first + int(w)
		} else if first < n {
			best = first
			for c := first + 1; c < n; c++ {
				if ev[c].before(&ev[best]) {
					best = c
				}
			}
		} else {
			break
		}
		if !ev[best].before(&x) {
			break
		}
		ev[i] = ev[best]
		i = best
	}
	ev[i] = x
}
