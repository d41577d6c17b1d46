package sim

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
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if ev[c].before(&ev[best]) {
				best = c
			}
		}
		if !ev[best].before(&x) {
			break
		}
		ev[i] = ev[best]
		i = best
	}
	ev[i] = x
}
