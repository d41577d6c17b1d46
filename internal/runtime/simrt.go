package runtime

import (
	"fmt"
	"io"
	"time"

	"ngdc/internal/sim"
)

// SimRuntime runs everything on the deterministic discrete-event
// simulator: tasks are sim processes, the clock is virtual and the
// transport is a zero-latency in-simulation loopback (the framing layer
// only — simulated services that want the paper's fabric cost model keep
// using internal/sockets over verbs). The loopback has two shapes: a
// channel pair between a dialing and an accepting task, and, to a
// listener that serves frames, a connection with no task behind it
// (servedConn).
type SimRuntime struct {
	env       *sim.Env
	listeners map[string]*simListener
}

// NewSim wraps an existing simulation environment as a Runtime.
func NewSim(env *sim.Env) *SimRuntime { return &SimRuntime{env: env} }

// SimEnv returns the wrapped environment — the devirtualization seam.
func (r *SimRuntime) SimEnv() *sim.Env { return r.env }

// Go spawns a simulated process running fn.
func (r *SimRuntime) Go(name string, fn func(t Task)) {
	r.env.Go(name, func(p *sim.Proc) { fn(simTask{p}) })
}

// GoDaemon spawns a daemon process (does not hold Run open).
func (r *SimRuntime) GoDaemon(name string, fn func(t Task)) {
	r.env.GoDaemon(name, func(p *sim.Proc) { fn(simTask{p}) })
}

// Run drives the simulation until the event queue drains.
func (r *SimRuntime) Run() error { return r.env.Run() }

// simTask adapts a sim process to the Task interface.
type simTask struct{ p *sim.Proc }

func (t simTask) Now() time.Duration    { return t.p.Now().Duration() }
func (t simTask) Sleep(d time.Duration) { t.p.Sleep(d) }
func (t simTask) SimProc() *sim.Proc    { return t.p }

// The two functions of a served connection (see Listener).
type (
	serveFunc  = func(t Task, frame []byte) (resp []byte, keep bool)
	closedFunc = func() (cleanup func(t Task))
)

// simListener is a loopback address in the runtime's namespace: an
// accept queue, or once ServeFrames has been called a frame server.
type simListener struct {
	rt     *SimRuntime
	addr   string
	accept *sim.Chan[*simConn]
	open   func() (serveFunc, closedFunc) // set: serving frames
	dialed bool
}

// Listen binds addr in this runtime's loopback namespace. The namespace
// is per-SimRuntime: two SimRuntimes over the same environment do not
// see each other's listeners.
func (r *SimRuntime) Listen(addr string) (Listener, error) {
	if r.listeners == nil {
		r.listeners = map[string]*simListener{}
	}
	if _, ok := r.listeners[addr]; ok {
		return nil, fmt.Errorf("runtime: address %q already bound", addr)
	}
	l := &simListener{
		rt:     r,
		addr:   addr,
		accept: sim.NewChan[*simConn](r.env, "accept "+addr, 0),
	}
	r.listeners[addr] = l
	return l, nil
}

// Dial connects to a listener bound in this runtime: to one that serves
// frames with a served connection, otherwise with one end of a channel
// pair whose other end it queues for Accept. It must be called from task
// or timer-callback context (it posts the accept event).
func (r *SimRuntime) Dial(addr string) (Conn, error) {
	l, ok := r.listeners[addr]
	if !ok {
		return nil, fmt.Errorf("runtime: dial %q: connection refused", addr)
	}
	l.dialed = true
	if l.open != nil {
		c := &servedConn{l: l, replies: sim.NewChan[[]byte](r.env, "conn<"+addr, 0)}
		c.serve, c.closed = l.open()
		return c, nil
	}
	// Two directed frame channels; each endpoint sends on its own and
	// receives on the peer's.
	ab := sim.NewChan[[]byte](r.env, "conn>"+addr, 0)
	ba := sim.NewChan[[]byte](r.env, "conn<"+addr, 0)
	client := &simConn{send: ab, recv: ba}
	server := &simConn{send: ba, recv: ab}
	l.accept.PostSend(server)
	return client, nil
}

// ServeFrames switches the listener to serving frames; Listener's
// comment is its contract.
func (l *simListener) ServeFrames(open func() (serveFunc, closedFunc)) error {
	if l.open != nil {
		return fmt.Errorf("runtime: listener %q already serves frames", l.addr)
	}
	if l.dialed {
		return fmt.Errorf("runtime: listener %q has been dialed: its connections wait for Accept", l.addr)
	}
	l.open = open
	return nil
}

func (l *simListener) Accept(t Task) (Conn, error) {
	if l.open != nil {
		return nil, fmt.Errorf("runtime: listener %q serves frames: it has no connections to accept", l.addr)
	}
	c, ok := l.accept.Recv(t.SimProc())
	if !ok {
		return nil, fmt.Errorf("runtime: listener %q closed", l.addr)
	}
	return c, nil
}

func (l *simListener) Addr() string { return l.addr }

func (l *simListener) Close() error {
	if l.rt.listeners[l.addr] == l {
		delete(l.rt.listeners, l.addr)
	}
	if !l.accept.Closed() {
		l.accept.Close()
	}
	return nil
}

// simConn is one endpoint of a loopback pair, for listeners that accept
// by hand. Frames are delivered at the current virtual instant; the sim
// transport models framing and ordering, not wire cost. The channels
// are unbuffered, so a Send waits for the peer's Recv: a window of more
// than one frame needs a peer that keeps receiving.
type simConn struct {
	send *sim.Chan[[]byte]
	recv *sim.Chan[[]byte]
}

func (c *simConn) Send(t Task, frame []byte) error {
	if c.send.Closed() {
		return io.ErrClosedPipe
	}
	// Copy: the caller may reuse its buffer after Send, like a real
	// socket write.
	f := make([]byte, len(frame))
	copy(f, frame)
	c.send.Send(t.SimProc(), f)
	return nil
}

func (c *simConn) Recv(t Task) ([]byte, error) { return recvFrame(c.recv, t) }

// recvFrame is Conn.Recv on a frame channel: closed and drained is EOF.
func recvFrame(ch *sim.Chan[[]byte], t Task) ([]byte, error) {
	f, ok := ch.Recv(t.SimProc())
	if !ok {
		return nil, io.EOF
	}
	return f, nil
}

// Flush has nothing to do: Send already delivered.
func (c *simConn) Flush() error { return nil }

func (c *simConn) Close() error {
	if !c.send.Closed() {
		c.send.Close()
	}
	return nil
}

// servedConn is a connection to a listener that serves frames. It has
// no peer endpoint and no peer task: Send executes the request on the
// sending process and queues the reply, Recv takes replies off the
// queue.
type servedConn struct {
	l       *simListener
	serve   serveFunc
	closed  closedFunc        // nil once the connection has ended
	replies *sim.Chan[[]byte] // closed: no more Sends
	sending bool
}

// Send runs the request between two same-instant yields. A connection
// with a handler process of its own scheduled exactly two events per
// request: the wake of the handler, at this Send, and the wake of the
// client, at the handler's reply. Each Sleep(0) puts this process's own
// wake where one of those stood — same instant, same place in the
// instant's order — so everything else scheduled for these instants
// runs in the order it always did, and the simulation computes what it
// always computed. What goes is the switch: a process whose own wake
// heads the queue consumes it without leaving (sim.Proc's park), where
// a handler process cost one resume to enter and one to return from.
// Without the yields a session runs ahead of its neighbours inside an
// instant and every contended lock is granted in a different order.
func (c *servedConn) Send(t Task, frame []byte) error {
	if c.replies.Closed() {
		return io.ErrClosedPipe
	}
	p := t.SimProc()
	c.sending = true
	p.Sleep(0) // the handler's wake
	resp, keep := c.serve(t, frame)
	if !c.replies.Closed() {
		// Copy: Recv's frame belongs to its caller, resp to the server.
		c.replies.PostSend(append([]byte(nil), resp...))
	}
	p.Sleep(0) // the client's wake
	c.sending = false
	if !keep {
		c.replies.Close()
	}
	if c.replies.Closed() {
		c.end()
	}
	return nil
}

func (c *servedConn) Recv(t Task) ([]byte, error) { return recvFrame(c.replies, t) }

// Flush has nothing to do: Send already executed the request.
func (c *servedConn) Flush() error { return nil }

// Close ends the connection now, or if a Send is executing a request,
// when that request is done: what the server cleans up must include
// what the request acquires.
func (c *servedConn) Close() error {
	c.replies.Close()
	if !c.sending {
		c.end()
	}
	return nil
}

// end tells the server, once, that the connection is over.
func (c *servedConn) end() {
	if c.closed == nil {
		return
	}
	cleanup := c.closed()
	c.closed = nil
	if cleanup != nil {
		c.l.rt.GoDaemon("conn-cleanup "+c.l.addr, cleanup)
	}
}
