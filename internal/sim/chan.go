package sim

// Chan is a simulated mailbox between processes. Send never blocks: it
// hands the value to the longest-parked receiver, whose wake is an event
// at the current instant, or queues it. So a process and a timer
// callback send the same way, and a sender may post any number of values
// before a receiver takes one. Recv blocks until a value is available.
//
// Blocking is allocation-free in the steady state: receiver records are
// recycled through a per-channel free list and the queues reuse their
// backing storage (see Queue).
type Chan[T any] struct {
	env       *Env
	name      string
	buf       Queue[T]
	receivers Queue[*recvWaiter[T]]
	closed    bool

	freeRecv []*recvWaiter[T]
	recvWhy  string
}

type recvWaiter[T any] struct {
	p  *Proc
	v  T
	ok bool
}

// NewChan creates an empty channel.
func NewChan[T any](e *Env, name string) *Chan[T] {
	return &Chan[T]{env: e, name: name, recvWhy: "recv on " + name}
}

// Len reports the number of queued values.
func (c *Chan[T]) Len() int { return c.buf.Len() }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

func (c *Chan[T]) getRecvWaiter(p *Proc) *recvWaiter[T] {
	if n := len(c.freeRecv); n > 0 {
		w := c.freeRecv[n-1]
		c.freeRecv = c.freeRecv[:n-1]
		w.p = p
		return w
	}
	return &recvWaiter[T]{p: p}
}

func (c *Chan[T]) putRecvWaiter(w *recvWaiter[T]) {
	var zero T
	w.p, w.v, w.ok = nil, zero, false
	c.freeRecv = append(c.freeRecv, w)
}

// Send delivers v without blocking: to a parked receiver if one exists,
// else to the queue. It is safe from timer callbacks. Sending on a
// closed channel panics.
func (c *Chan[T]) Send(v T) {
	if c.closed {
		panic("sim: send on closed channel " + c.name)
	}
	if c.receivers.Len() > 0 {
		w := c.receivers.Pop()
		w.v, w.ok = v, true
		c.env.wake(w.p)
		return
	}
	c.buf.Push(v)
}

// Recv returns the next value. It blocks until a value is available. The
// second result is false if the channel was closed and drained.
func (c *Chan[T]) Recv(p *Proc) (T, bool) {
	if c.buf.Len() > 0 {
		return c.buf.Pop(), true
	}
	if c.closed {
		var zero T
		return zero, false
	}
	w := c.getRecvWaiter(p)
	c.receivers.Push(w)
	p.block(c.recvWhy)
	v, ok := w.v, w.ok
	c.putRecvWaiter(w)
	return v, ok
}

// TryRecv returns the next value without blocking; ok is false when no
// value is queued.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.buf.Len() > 0 {
		return c.buf.Pop(), true
	}
	return v, false
}

// Close marks the channel closed and wakes every parked receiver with ok
// == false. A receiver parks only on an empty queue, so none is parked
// while values remain; those stay receivable.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for c.receivers.Len() > 0 {
		w := c.receivers.Pop()
		w.ok = false
		c.env.wake(w.p)
	}
}
