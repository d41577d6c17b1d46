package sim

// Chan is a simulated message channel between processes. Like a Go
// channel it may be buffered; unlike a Go channel, an unbuffered (cap 0)
// Chan still decouples sender and receiver by one scheduling step, and
// PostSend allows non-blocking delivery from timer callbacks regardless of
// capacity (the buffer grows past cap in that case; cap only limits
// blocking senders).
//
// Blocking is allocation-free in the steady state: waiter records are
// recycled through per-channel free lists and the waiter queues reuse
// their backing storage (see Queue).
type Chan[T any] struct {
	env       *Env
	name      string
	cap       int
	buf       Queue[T]
	senders   Queue[*sendWaiter[T]]
	receivers Queue[*recvWaiter[T]]
	closed    bool

	freeSend []*sendWaiter[T]
	freeRecv []*recvWaiter[T]
	sendWhy  string
	recvWhy  string
}

type sendWaiter[T any] struct {
	p *Proc
	v T
}

type recvWaiter[T any] struct {
	p  *Proc
	v  T
	ok bool
}

// NewChan creates a channel with the given buffer capacity. Capacity 0
// means blocking senders wait for a receiver.
func NewChan[T any](e *Env, name string, capacity int) *Chan[T] {
	return &Chan[T]{
		env:     e,
		name:    name,
		cap:     capacity,
		sendWhy: "send on " + name,
		recvWhy: "recv on " + name,
	}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.Len() }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

func (c *Chan[T]) getSendWaiter(p *Proc, v T) *sendWaiter[T] {
	if n := len(c.freeSend); n > 0 {
		w := c.freeSend[n-1]
		c.freeSend = c.freeSend[:n-1]
		w.p, w.v = p, v
		return w
	}
	return &sendWaiter[T]{p: p, v: v}
}

func (c *Chan[T]) putSendWaiter(w *sendWaiter[T]) {
	var zero T
	w.p, w.v = nil, zero
	c.freeSend = append(c.freeSend, w)
}

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

// deliver hands v to a parked receiver if one exists, else buffers it.
func (c *Chan[T]) deliver(v T) {
	if c.receivers.Len() > 0 {
		w := c.receivers.Pop()
		w.v, w.ok = v, true
		c.env.wake(w.p)
		return
	}
	c.buf.Push(v)
}

// PostSend delivers v without blocking. It is safe from timer callbacks
// and never fails; the buffer grows beyond cap if necessary. Posting to a
// closed channel panics.
func (c *Chan[T]) PostSend(v T) {
	if c.closed {
		panic("sim: send on closed channel " + c.name)
	}
	c.deliver(v)
}

// Send delivers v, blocking while the buffer is at capacity and no
// receiver is waiting. Sending on a closed channel panics.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.closed {
		panic("sim: send on closed channel " + c.name)
	}
	if c.receivers.Len() > 0 || c.buf.Len() < c.cap {
		c.deliver(v)
		return
	}
	w := c.getSendWaiter(p, v)
	c.senders.Push(w)
	p.block(c.sendWhy)
	c.putSendWaiter(w)
}

// Recv returns the next value. It blocks until a value is available. The
// second result is false if the channel was closed and drained.
func (c *Chan[T]) Recv(p *Proc) (T, bool) {
	if c.buf.Len() > 0 {
		v := c.buf.Pop()
		c.admitSender()
		return v, true
	}
	if c.senders.Len() > 0 {
		w := c.senders.Pop()
		v := w.v
		c.env.wake(w.p)
		return v, true
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
// value is immediately available.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.buf.Len() > 0 {
		v = c.buf.Pop()
		c.admitSender()
		return v, true
	}
	if c.senders.Len() > 0 {
		w := c.senders.Pop()
		v = w.v
		c.env.wake(w.p)
		return v, true
	}
	return v, false
}

// admitSender moves one blocked sender's value into freed buffer space.
func (c *Chan[T]) admitSender() {
	if c.senders.Len() > 0 && c.buf.Len() < c.cap {
		w := c.senders.Pop()
		c.buf.Push(w.v)
		c.env.wake(w.p)
	}
}

// Close marks the channel closed. Parked receivers are woken with ok ==
// false once the buffer drains; buffered values remain receivable.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.buf.Len() == 0 && c.senders.Len() == 0 {
		for c.receivers.Len() > 0 {
			w := c.receivers.Pop()
			w.ok = false
			c.env.wake(w.p)
		}
	}
}
