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
// using internal/sockets over verbs).
type SimRuntime struct {
	env       *sim.Env
	listeners map[string]*simListener
}

// NewSim wraps an existing simulation environment as a Runtime.
func NewSim(env *sim.Env) *SimRuntime { return &SimRuntime{env: env} }

// Mode reports SimMode.
func (r *SimRuntime) Mode() Mode { return SimMode }

// SimEnv returns the wrapped environment — the devirtualization seam.
func (r *SimRuntime) SimEnv() *sim.Env { return r.env }

// Now returns the current virtual time as elapsed duration.
func (r *SimRuntime) Now() time.Duration { return r.env.Now().Duration() }

// After schedules fn to run inline in the scheduler d from now.
func (r *SimRuntime) After(d time.Duration, fn func()) { r.env.After(d, fn) }

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

// Shutdown unwinds all process goroutines.
func (r *SimRuntime) Shutdown() { r.env.Shutdown() }

// simTask adapts a sim process to the Task interface.
type simTask struct{ p *sim.Proc }

func (t simTask) Name() string          { return t.p.Name() }
func (t simTask) Now() time.Duration    { return t.p.Now().Duration() }
func (t simTask) Sleep(d time.Duration) { t.p.Sleep(d) }
func (t simTask) SimProc() *sim.Proc    { return t.p }

// simListener is a loopback accept queue in the runtime's namespace.
type simListener struct {
	rt     *SimRuntime
	addr   string
	accept *sim.Chan[*simConn]
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

// Dial connects to a listener bound in this runtime. It must be called
// from task or timer-callback context (it posts the accept event).
func (r *SimRuntime) Dial(addr string) (Conn, error) {
	l, ok := r.listeners[addr]
	if !ok {
		return nil, fmt.Errorf("runtime: dial %q: connection refused", addr)
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

func (l *simListener) Accept(t Task) (Conn, error) {
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

// simConn is one endpoint of a loopback pair. Frames are delivered at
// the current virtual instant; the sim transport models framing and
// ordering, not wire cost.
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

func (c *simConn) Recv(t Task) ([]byte, error) {
	f, ok := c.recv.Recv(t.SimProc())
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
