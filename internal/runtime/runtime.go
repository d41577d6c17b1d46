// Package runtime abstracts the execution substrate the framework's
// services are built against: concurrent tasks, each with a clock, and a
// message-framed transport (Dial/Listen). It has exactly two
// implementations:
//
//   - SimRuntime — the deterministic discrete-event simulator
//     (internal/sim). Tasks are sim processes, the clock is virtual,
//     and the transport is an in-simulation loopback. Every run of the
//     same script is byte-identical.
//
//   - RealRuntime — real goroutines over the wall clock, with the
//     transport mapped to loopback TCP or Unix-domain sockets with
//     length-prefixed framing, flushed when its owner is about to block
//     (see Conn). This is the substrate of the live ngdc-serve process.
//
// The abstraction is intentionally construction-time only on the hot
// paths: a simulated run is opened once (ServiceOptions.NewEnv) and its
// services then run on the concrete *sim.Env via SimEnv() — no interface
// dispatch is added to the per-event engine or per-request service loops,
// so the sim's allocation-free fast paths and golden outputs are
// unchanged. The sim remains the repeatable test harness for the live
// mode: internal/serve hosts the same request surface on either runtime.
package runtime

import (
	"time"

	"ngdc/internal/sim"
)

// Task is one unit of concurrency: a sim process on SimRuntime, a plain
// goroutine on RealRuntime. Blocking primitives take the Task so the sim
// backend can park the right process.
type Task interface {
	// Now returns the elapsed time since the runtime started (virtual
	// on SimRuntime, wall on RealRuntime).
	Now() time.Duration
	// Sleep suspends the task for d.
	Sleep(d time.Duration)
	// SimProc returns the underlying simulated process on SimRuntime and
	// nil on RealRuntime. It is the devirtualization seam for code that
	// needs the concrete sim API.
	SimProc() *sim.Proc
}

// Conn is one endpoint of a bidirectional, message-framed connection:
// each Send delivers one whole frame to the peer's Recv, in order. On
// RealRuntime frames travel length-prefixed over loopback TCP or a Unix
// socket; on SimRuntime they travel over simulated channels at the current
// virtual instant. Send and Recv are each safe for one concurrent
// caller, so one sender and one receiver may share a Conn.
//
// When a sent frame is on the wire. SimRuntime hands a frame to the peer
// inside Send; to a listener that serves frames (see Listener) it does
// more, and executes the request there: Send returns once the reply is
// queued for Recv, so a request that blocks — a contended lock — blocks
// its sender in Send, and a window of requests is answered one Send at
// a time. RealRuntime batches: Send appends to the connection's buffer,
// and the buffer is written out
//
//   - before a Recv on this Conn waits for input, header or body — so a
//     caller that sends, then receives, never waits on a peer that has
//     not been sent the request, and ping-pong costs one write per frame;
//   - when the buffer fills, on Flush and on Close.
//
// A frame is therefore not guaranteed to have left after Send alone. An
// owner that blocks anywhere else — on a lock, a channel, a sleep —
// with frames its peer is waiting for calls Flush first. A window of
// frames sent before the first Recv shares writes, which is the point:
// on small frames the per-write cost dwarfs the framing.
//
// That is the rule for a Conn one task drives. Once a Send finds
// another task waiting in Recv on the same Conn, that Send and every
// later one writes its frame out before it returns, and Recv stops
// flushing: a receiver that blocked in a write on the sender's behalf
// would stop draining the peer. With a sender task and a receiver task,
// then, a frame leaves inside Send — until the two have first met, when
// the receiver next waits — and the receiver is never held up by the
// sender, not even by one stuck in a write to a peer whose replies have
// backed up.
type Conn interface {
	// Send queues one frame for the peer. The caller may reuse frame as
	// soon as Send returns.
	Send(t Task, frame []byte) error
	// Recv blocks until a frame arrives. The frame belongs to the
	// caller, who may keep any number of them. It returns io.EOF once
	// the peer has closed and all frames are drained.
	Recv(t Task) ([]byte, error)
	// Flush writes out what Send has queued. It is the sender's call:
	// it may block for as long as a write would.
	Flush() error
	// Close sends what Send still holds, giving up after a second on a
	// peer that has stopped reading, then tears the connection down;
	// the peer's pending and future Recvs return io.EOF once the frames
	// before it are drained.
	Close() error
}

// Listener accepts inbound connections on an address.
//
// The simulated listener has one optional capability besides, in the
// style of the live Conn's RecvInto: to serve its connections with no
// task on the server's side — the model has no thread there to pay for.
//
//	ServeFrames(open func() (
//		serve func(t Task, frame []byte) (resp []byte, keep bool),
//		closed func() (cleanup func(t Task)),
//	)) error
//
// A listener is in one of two modes for good. Left alone it queues
// dialed connections for Accept. Given a frame server it has none to
// accept: every Dial calls open for that connection's two functions,
// and the dialed Conn's Send runs serve on the sending task and queues
// the reply for Recv.
//
//   - serve answers one request frame. It may block the task. Neither
//     frame nor resp is kept by the other side past the call (the
//     connection copies resp for its receiver). keep false hangs up
//     after this reply: Recv delivers it, then io.EOF.
//   - closed is called once, when the connection ends — at the client's
//     Close, or after a serve that hung up. Close has no task to block,
//     so work that needs one is returned as cleanup and runs on a daemon
//     task started at that instant; nil means there is none, and then
//     nothing is scheduled.
//
// ServeFrames fails if the listener is already serving frames or has
// been dialed: connections waiting for Accept would never be served.
type Listener interface {
	// Accept blocks until a connection arrives. It returns an error
	// after Close, and on a listener that serves frames.
	Accept(t Task) (Conn, error)
	// Addr returns the bound address (useful with ":0" TCP listens).
	Addr() string
	// Close stops accepting.
	Close() error
}

// Runtime is the execution substrate: tasks + transport. Exactly two
// implementations exist, SimRuntime and RealRuntime.
type Runtime interface {
	// SimEnv returns the underlying simulation environment on
	// SimRuntime and nil on RealRuntime. Simulated services call it once at
	// construction and run on the concrete environment afterwards.
	SimEnv() *sim.Env
	// Go starts a task. Run waits for tasks started with Go. The name
	// labels the simulated process; RealRuntime does not keep it.
	Go(name string, fn func(t Task))
	// GoDaemon starts a background task that Run does not wait for
	// (accept loops, protocol pumps).
	GoDaemon(name string, fn func(t Task))
	// Run drives the runtime until all non-daemon tasks finish (on
	// SimRuntime: until the event queue drains; a deadlock is an error).
	Run() error
	// Dial opens a connection to a listener. Addresses starting with
	// "unix:" name a Unix-domain socket path on RealRuntime; anything
	// else is a TCP host:port. SimRuntime treats the address as an opaque name
	// in the runtime's loopback namespace.
	Dial(addr string) (Conn, error)
	// Listen binds an address for Accept.
	Listen(addr string) (Listener, error)
}
