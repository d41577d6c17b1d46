package sim

// Future is a single-assignment container that processes can block on:
// the simulated analogue of a completion. It is the building block for
// request/response interactions where the responder may answer from a
// timer callback (e.g. NIC completions).
type Future[T any] struct {
	env     *Env
	name    string
	set     bool
	val     T
	waiters Queue[*futWaiter[T]]
	free    []*futWaiter[T]
	why     string
	// granted holds async waiter callbacks awaiting dispatch through the
	// event queue; dispatch pops them FIFO so callback waiters interleave
	// with process wakes at the resolve instant in registration order.
	granted  Queue[futGrant[T]]
	dispatch func()
}

type futWaiter[T any] struct {
	p *Proc
	v T
	// fn is non-nil for callback-context waiters (WaitAsync): the waiter
	// has no process; the resolve dispatches fn with the value.
	fn func(v T)
}

type futGrant[T any] struct {
	fn func(v T)
	v  T
}

func (f *Future[T]) getWaiter(p *Proc) *futWaiter[T] {
	if n := len(f.free); n > 0 {
		w := f.free[n-1]
		f.free = f.free[:n-1]
		w.p = p
		return w
	}
	return &futWaiter[T]{p: p}
}

func (f *Future[T]) putWaiter(w *futWaiter[T]) {
	var zero T
	w.p, w.v, w.fn = nil, zero, nil
	f.free = append(f.free, w)
}

// NewFuture creates an unresolved future.
func NewFuture[T any](e *Env, name string) *Future[T] {
	return &Future[T]{env: e, name: name, why: "future " + name}
}

// Done reports whether the future has been resolved.
func (f *Future[T]) Done() bool { return f.set }

// Resolve sets the value and wakes all waiters. Resolving twice panics.
// Safe from timer callbacks.
func (f *Future[T]) Resolve(v T) {
	if f.set {
		panic("sim: future resolved twice: " + f.name)
	}
	f.set = true
	f.val = v
	for f.waiters.Len() > 0 {
		w := f.waiters.Pop()
		if w.fn != nil {
			// Callback waiter: hand the value through the event queue so it
			// interleaves with same-instant process wakes in FIFO order.
			f.granted.Push(futGrant[T]{fn: w.fn, v: v})
			f.env.schedule(f.env.now, nil, f.dispatch)
			f.putWaiter(w)
			continue
		}
		w.v = v
		f.env.wake(w.p)
	}
}

// WaitAsync registers fn to run with the value when the future resolves:
// synchronously if it is already resolved, otherwise dispatched through
// the event queue at the resolve instant — the same position a process
// wake registered at this point would have had. Event-chain state
// machines use it to wait without a process. Steady-state use allocates
// nothing: waiter records, the grant queue and the dispatch closure are
// all recycled.
func (f *Future[T]) WaitAsync(fn func(v T)) {
	if f.set {
		fn(f.val)
		return
	}
	if f.dispatch == nil {
		f.dispatch = func() {
			g := f.granted.Pop()
			g.fn(g.v)
		}
	}
	w := f.getWaiter(nil)
	w.fn = fn
	f.waiters.Push(w)
}

// Wait blocks until the future resolves and returns its value.
func (f *Future[T]) Wait(p *Proc) T {
	if f.set {
		return f.val
	}
	w := f.getWaiter(p)
	f.waiters.Push(w)
	p.block(f.why)
	v := w.v
	f.putWaiter(w)
	return v
}

// Reset returns a resolved (or never-resolved, waiter-free) future to the
// unresolved state so the allocation can be reused for the next
// request/response cycle. Services with per-key request tables pool their
// futures this way and keep steady-state request loops allocation-free.
// Resetting while a process is still parked in Wait panics: the waiter
// would otherwise be stranded waiting on a recycled completion.
func (f *Future[T]) Reset() {
	if f.waiters.Len() > 0 {
		panic("sim: future reset with parked waiters: " + f.name)
	}
	f.set = false
	var zero T
	f.val = zero
}

// Await is how a process runs an event chain as a blocking call: it
// starts the chain, whose last step calls Done, then calls Wait. A chain
// that ends inside the call that started it — a Device.Issue that fails
// validation completes inline — has called Done before Wait, which then
// returns at once: the process does not park, and nothing calls Continue
// outside a callback. Otherwise the process parks once, and Done hands it
// back with Env.Continue at the instant and inside the event of the last
// step, where the blocking code the chain replaces would have returned.
// The zero value is ready; an Await serves one chain at a time.
type Await struct {
	p    *Proc // parked in Wait
	done bool  // Done ran; Wait has not yet returned
}

// Wait returns once the chain started since the last Wait has called
// Done, parking p until then. reason describes the wait in deadlock
// reports; pass a preformatted string so waiting allocates nothing.
func (a *Await) Wait(p *Proc, reason string) {
	if !a.done {
		a.p = p
		p.Park(reason)
		a.p = nil
	}
	a.done = false
}

// Done is the chain's last step: it ends the wait, handing a parked
// process back as soon as the running callback returns.
func (a *Await) Done() {
	a.done = true
	if p := a.p; p != nil {
		p.env.Continue(p)
	}
}

// WaitGroup counts outstanding work items across processes; Wait blocks
// until the count reaches zero.
type WaitGroup struct {
	env     *Env
	name    string
	count   int
	waiters Queue[*Proc]
	why     string
}

// NewWaitGroup creates a wait group with an initial count of zero.
func NewWaitGroup(e *Env, name string) *WaitGroup {
	return &WaitGroup{env: e, name: name, why: "waitgroup " + name}
}

// Add adjusts the count by delta; a negative result panics. Safe from
// timer callbacks.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative waitgroup count: " + w.name)
	}
	if w.count == 0 {
		for w.waiters.Len() > 0 {
			w.env.wake(w.waiters.Pop())
		}
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the count is zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters.Push(p)
	p.block(w.why)
}
