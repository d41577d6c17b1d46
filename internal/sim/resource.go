package sim

import "time"

// Resource is a FIFO counting semaphore over virtual time, used to model
// contended capacity such as CPU cores, NIC transmit engines or disk
// spindles. Waiters are served strictly in arrival order (no barging), so
// a large request at the head of the queue blocks later small ones, as in
// a FIFO run queue.
//
// There are two ways to take units. Acquire blocks a process until they
// are free and leaves the Release to the caller. A hold occupies them for
// a time known when it is requested and releases them itself: HoldAsync
// from callback context, Use from a process. Both kinds of requester wait
// in one queue, so event chains and blocking processes contend fairly.
//
// A queued hold is granted through the event queue: Release takes its
// units and schedules one dispatch event at the grant instant, so the
// grant interleaves with same-instant process wakes in arrival order. A
// hold then costs one more event, at the end of the hold, and an
// uncontended one costs only that. Waiter records are recycled with
// their callback bound once and the queues reuse their backing storage:
// contended acquisition allocates nothing in the steady state.
type Resource struct {
	// What an uncontended hold touches comes first and stays together:
	// with a thousand NICs every resource is cold in the host's cache when
	// its turn comes, and a hold should cost one miss, not one per field.
	env       *Env
	cap       int
	inUse     int
	q         Queue[*resWaiter]
	free      *resWaiter // recycled records, linked through next
	onHold    func(d, waited time.Duration)
	onRelease func()
	first     resWaiter // the record a capacity-1 engine reuses for every hold

	name string
	why  string
	// granted holds the queued holds whose units Release has taken, until
	// their dispatch event runs.
	granted  Queue[*resWaiter]
	dispatch func()
}

// resWaiter is one queued request or one hold in progress. A process
// waiter (hold false) is a process blocked in Acquire. A hold carries
// its duration and either the process to resume at its end (Use; the
// process releases the units) or the done callback (HoldAsync; endFn
// releases them).
type resWaiter struct {
	r    *Resource
	n    int
	p    *Proc
	hold bool
	d    time.Duration
	enq  Time
	// granted and done are HoldAsync's callbacks; endFn is end, bound once.
	granted, done func()
	endFn         func()
	next          *resWaiter // free list
}

// NewResource creates a resource with the given capacity (units).
func NewResource(e *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	r := &Resource{env: e, name: name, cap: capacity, why: "acquire " + name}
	r.first.r, r.first.endFn = r, r.first.end
	r.free = &r.first
	r.dispatch = func() {
		w := r.granted.Pop()
		r.begin(w, time.Duration(e.now-w.enq))
	}
	return r
}

// OnHold installs fn to observe every hold at its grant instant, with the
// hold's duration and the time it spent queued: occupancy accounting that
// belongs to the engine, not to each caller (a NIC's transmit statistics).
func (r *Resource) OnHold(fn func(d, waited time.Duration)) { r.onHold = fn }

// OnRelease installs fn to observe every Release at its instant, after
// the units are returned and before a queued request is granted: for a
// hold that is ahead of its done, so accounting that retires a burst (a
// node's run queue) is the resource's, not each caller's.
func (r *Resource) OnRelease(fn func()) { r.onRelease = fn }

// InUse returns the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// take grants n units inline when they are free and nobody is queued.
func (r *Resource) take(n int) bool {
	if n <= 0 || n > r.cap {
		panic("sim: bad acquire count on " + r.name)
	}
	if r.q.Len() > 0 || r.inUse+n > r.cap {
		return false
	}
	r.inUse += n
	return true
}

// Acquire blocks until n units are available and takes them. n must be in
// [1, capacity].
func (r *Resource) Acquire(p *Proc, n int) {
	if r.take(n) {
		return
	}
	w := r.waiter()
	w.p, w.n = p, n
	r.q.Push(w)
	p.block(r.why)
	r.recycle(w)
}

// HoldAsync occupies n units for d from callback context. If the units
// are free (and no earlier waiter is queued) the hold is granted inline;
// otherwise it joins the queue and is granted by a dispatch event. At the
// grant instant granted runs (it may be nil); d later one event releases
// the units and then calls done, so done sees them free and runs ahead of
// the waiters that release woke.
func (r *Resource) HoldAsync(n int, d time.Duration, granted, done func()) {
	inline := r.take(n)
	w := r.waiter()
	w.n, w.hold, w.d, w.granted, w.done = n, true, d, granted, done
	if inline {
		r.begin(w, 0)
		return
	}
	w.enq = r.env.now
	r.q.Push(w)
}

// Use is a hold from a process: it acquires n units, holds them for d of
// virtual time, then releases them — the timeline of Acquire, Sleep(d),
// Release, with the process parked once even when it had to queue.
func (r *Resource) Use(p *Proc, n int, d time.Duration) {
	if r.take(n) {
		if r.onHold != nil {
			r.onHold(d, 0)
		}
		p.Sleep(d)
	} else {
		w := r.waiter()
		w.p, w.n, w.hold, w.d, w.enq = p, n, true, d, r.env.now
		r.q.Push(w)
		p.block(r.why)
	}
	r.Release(n)
}

// begin starts a granted hold: account it, run the grant callback and
// schedule its end.
func (r *Resource) begin(w *resWaiter, waited time.Duration) {
	if r.onHold != nil {
		r.onHold(w.d, waited)
	}
	if w.p != nil {
		r.env.WakeAfter(w.p, w.d)
		r.recycle(w)
		return
	}
	if w.granted != nil {
		w.granted()
	}
	r.env.After(w.d, w.endFn)
}

// end is the last event of a HoldAsync hold. The record is recycled first
// so that a done which starts the next hold reuses it.
func (w *resWaiter) end() {
	r, n, done := w.r, w.n, w.done
	r.recycle(w)
	r.Release(n)
	done()
}

func (r *Resource) waiter() *resWaiter {
	if w := r.free; w != nil {
		r.free = w.next
		return w
	}
	w := &resWaiter{r: r}
	w.endFn = w.end
	return w
}

func (r *Resource) recycle(w *resWaiter) {
	w.p, w.hold, w.granted, w.done = nil, false, nil, nil
	w.next, r.free = r.free, w
}

// Release returns n units and grants queued requests in FIFO order. It is
// safe to call from timer callbacks.
func (r *Resource) Release(n int) {
	if n <= 0 || r.inUse-n < 0 {
		panic("sim: bad release count on " + r.name)
	}
	r.inUse -= n
	if r.onRelease != nil {
		r.onRelease()
	}
	for r.q.Len() > 0 && r.inUse+r.q.peek().n <= r.cap {
		w := r.q.Pop()
		r.inUse += w.n
		if w.hold {
			r.granted.Push(w)
			r.env.schedule(r.env.now, nil, r.dispatch)
		} else {
			r.env.wake(w.p)
		}
	}
}
