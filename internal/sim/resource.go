package sim

import "time"

// Resource is a FIFO counting semaphore over virtual time, used to model
// contended capacity such as CPU cores, NIC transmit engines or disk
// spindles. Acquire blocks until the requested units are available;
// waiters are served strictly in arrival order (no barging), so a large
// request at the head of the queue blocks later small ones, as in a FIFO
// run queue. Contended acquisition is allocation-free in the steady
// state: waiter records are recycled through a free list and the waiter
// queue reuses its backing storage.
//
// Besides blocking acquisition from a process, a resource supports
// callback-context acquisition (AcquireAsync): the grant is delivered to
// a function run inline in the scheduler instead of waking a parked
// process. Both kinds of requester share the same FIFO queue, so
// event-chain state machines and blocking processes contend fairly.
type Resource struct {
	env   *Env
	name  string
	cap   int
	inUse int
	q     waitq[*resWaiter]
	free  []*resWaiter
	why   string
	// granted holds async grants awaiting dispatch through the event
	// queue; dispatch pops them FIFO so grant order matches queue order.
	granted  waitq[asyncGrant]
	dispatch func()
}

type resWaiter struct {
	p *Proc
	n int
	// fn is non-nil for callback-context requests: the waiter has no
	// process; the grant runs fn inline in the scheduler with the time
	// the request spent queued.
	fn  func(waited time.Duration)
	enq Time
	// fused marks a UseWith waiter: at the grant instant the dispatch
	// runs hook and schedules the process's resume useD later, so the
	// process parks once for the whole acquire-hold-release.
	fused bool
	useD  time.Duration
	hook  func(ser, waited time.Duration)
}

type asyncGrant struct {
	fn     func(waited time.Duration)
	waited time.Duration
	// Fused-use grant (p non-nil): resume p after d, running hook first.
	p    *Proc
	d    time.Duration
	hook func(ser, waited time.Duration)
}

// NewResource creates a resource with the given capacity (units).
func NewResource(e *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	r := &Resource{env: e, name: name, cap: capacity, why: "acquire " + name}
	// One dispatch closure per resource: scheduling an async grant through
	// the event queue allocates nothing per operation.
	r.dispatch = func() {
		g := r.granted.pop()
		if g.p != nil {
			// Fused-use grant: run the hook and schedule the resume at
			// grant+d — the same single event a woken process's Sleep(d)
			// would have scheduled here, so seq order is unchanged.
			if g.hook != nil {
				g.hook(g.d, g.waited)
			}
			r.env.WakeAfter(g.p, g.d)
			return
		}
		g.fn(g.waited)
	}
	return r
}

// Cap returns the total capacity.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Queued returns the number of waiting acquirers.
func (r *Resource) Queued() int { return r.q.len() }

// Acquire blocks until n units are available and takes them. n must be in
// [1, Cap].
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.cap {
		panic("sim: bad acquire count on " + r.name)
	}
	if r.q.len() == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		return
	}
	w := r.waiter()
	w.p, w.n = p, n
	r.q.push(w)
	p.block(r.why)
	w.p = nil
	r.free = append(r.free, w)
}

// AcquireAsync requests n units from callback context. If the units are
// immediately available (and no earlier waiter is queued) fn runs
// synchronously with waited == 0 — the uncontended fast path. Otherwise
// the request joins the same FIFO queue as blocking acquirers and fn is
// dispatched through the event queue at the grant instant, so grant
// order relative to process wakes at the same instant matches arrival
// order exactly. The caller owns the units once fn runs and must
// Release them. Steady-state contended grants allocate nothing: waiter
// records, the grant queue and the dispatch closure are all recycled.
func (r *Resource) AcquireAsync(n int, fn func(waited time.Duration)) {
	if n <= 0 || n > r.cap {
		panic("sim: bad acquire count on " + r.name)
	}
	if r.q.len() == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		fn(0)
		return
	}
	w := r.waiter()
	w.n, w.fn, w.enq = n, fn, r.env.now
	r.q.push(w)
}

func (r *Resource) waiter() *resWaiter {
	if ln := len(r.free); ln > 0 {
		w := r.free[ln-1]
		r.free = r.free[:ln-1]
		return w
	}
	return &resWaiter{}
}

// Release returns n units and wakes queued acquirers in FIFO order. It is
// safe to call from timer callbacks.
func (r *Resource) Release(n int) {
	if n <= 0 || r.inUse-n < 0 {
		panic("sim: bad release count on " + r.name)
	}
	r.inUse -= n
	for r.q.len() > 0 && r.inUse+r.q.peek().n <= r.cap {
		w := r.q.pop()
		r.inUse += w.n
		switch {
		case w.fused:
			// Fused-use waiter: hand the grant through the event queue
			// (like a callback waiter); the dispatch schedules the
			// process's resume at grant+d. The waiter record is free as
			// soon as the grant is queued.
			r.granted.push(asyncGrant{p: w.p, d: w.useD, hook: w.hook,
				waited: time.Duration(r.env.now - w.enq)})
			r.env.schedule(r.env.now, nil, r.dispatch)
			w.p, w.hook, w.fused = nil, nil, false
			r.free = append(r.free, w)
		case w.fn != nil:
			// Callback waiter: hand the grant through the event queue so
			// it interleaves with same-instant process wakes in FIFO order.
			r.granted.push(asyncGrant{fn: w.fn, waited: time.Duration(r.env.now - w.enq)})
			r.env.schedule(r.env.now, nil, r.dispatch)
			w.fn = nil
			r.free = append(r.free, w)
		default:
			r.env.wake(w.p)
		}
	}
}

// Use acquires n units, holds them for d of virtual time, then releases
// them: the common "occupy capacity for a while" idiom.
func (r *Resource) Use(p *Proc, n int, d time.Duration) {
	r.UseWith(p, n, d, nil)
}

// UseWith is Use with an optional hook run at the grant instant (after
// the queueing delay, before the hold) with the hold duration and the
// time spent queued — NIC transmit accounting uses it. The virtual
// timeline is identical to Acquire+Sleep+Release: uncontended callers
// run literally that sequence, and contended callers join the same FIFO,
// with the grant dispatched through the event queue scheduling the
// resume at grant+d — the same instants and event order as waking the
// process twice, but parking it only once. Pass a preformatted hook (not
// a per-call closure) to keep the contended path allocation-free.
func (r *Resource) UseWith(p *Proc, n int, d time.Duration, hook func(ser, waited time.Duration)) {
	if n <= 0 || n > r.cap {
		panic("sim: bad acquire count on " + r.name)
	}
	if r.q.len() == 0 && r.inUse+n <= r.cap {
		r.inUse += n
		if hook != nil {
			hook(d, 0)
		}
		p.Sleep(d)
		r.Release(n)
		return
	}
	w := r.waiter()
	w.p, w.n, w.fused, w.useD, w.hook, w.enq = p, n, true, d, hook, r.env.now
	r.q.push(w)
	p.block(r.why)
	r.Release(n)
}
