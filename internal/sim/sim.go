//go:build go1.23

// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine in the style of SimPy.
//
// A simulation consists of an Env (the scheduler: virtual clock plus a
// priority queue of events) and a set of processes. Each process is a
// coroutine of the run loop (iter.Pull): the loop pops a wake event and
// resumes the process, the process runs until it next blocks and yields
// back. Exactly one of them runs at any instant, and there is one resume
// path whether or not a tracer is installed. Because of this property,
// simulation state (including all engine data structures and any model
// state touched only from processes or timer callbacks) needs no locking
// and every run with the same inputs is exactly reproducible.
//
// Processes interact with virtual time through Proc.Sleep, and with each
// other through Chan (a simulated message channel) and Resource (a FIFO
// counting semaphore, e.g. CPU cores or a network link). Timer callbacks
// (Env.At, Env.After) run inline in the scheduler and may use the
// non-blocking primitives (Chan.PostSend, Resource.HoldAsync) but must
// never block. A callback hands control back to a process parked with
// Proc.Park in one of two ways: Env.WakeAfter queues its wake as an
// event, and Env.Continue resumes it inside the running event, which is
// how Await ends a chain that a process runs as a blocking call.
//
// The engine is built for throughput: the event queue is a 4-ary heap of
// event values (no allocation, no interface dispatch per scheduling
// operation), waiter queues recycle their storage, a coroutine switch
// bypasses the Go scheduler, and a Sleep whose wake would head the queue
// keeps running without switching at all: the process advances the clock
// in place, counting the event and drawing its sequence number as the
// push and pop would have (Proc.SleepUntil). Steady-state scheduling
// (Sleep, channel ping-pong, resource hand-off) is allocation free;
// internal/sim's benchmarks assert this numerically.
//
// The build tag raises this file's language version for iter; go.mod
// stays at go 1.22 because benchmark/go.mod requires this module at that
// version (see README, "Go version").
package sim

import (
	"fmt"
	"iter"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// maxTime is the largest representable virtual time, used as the "no
// limit" sentinel by Run.
const maxTime = Time(1<<62 - 1)

// Duration converts the virtual time point to a time.Duration since the
// simulation epoch, which is convenient for formatting.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the time d after t, saturating at maxTime instead of
// wrapping: maxTime is the "run forever" sentinel, so an overflowed sum
// must stay there rather than jump into the past (which would make a
// far-future timer fire immediately, or a RunUntil limit vanish).
// Negative d clamps at the epoch; virtual time never precedes it.
func (t Time) Add(d time.Duration) Time {
	s := t + Time(d)
	if d >= 0 {
		if s < t || s > maxTime {
			return maxTime
		}
	} else if s < 0 {
		return 0
	}
	return s
}

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled occurrence: either the resumption of a parked
// process or an inline timer callback. Events are stored by value in the
// engine's heap (heap.go); scheduling one allocates nothing.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among events at the same instant
	proc *Proc  // non-nil: resume this process
	fn   func() // non-nil: run inline in the scheduler
}

// killSentinel is the panic value that unwinds a process body during
// Env.Shutdown.
type killSentinel struct{}

// Env is a simulation environment: the virtual clock, the event queue and
// the bookkeeping for live processes. The zero value is not usable; create
// environments with NewEnv.
type Env struct {
	now     Time
	seq     uint64
	evq     eventHeap
	limit   Time    // active run limit; only meaningful while running
	procs   []*Proc // live processes, position mirrored in Proc.liveIdx
	err     error
	stopped bool

	// inCallback is set while the run loop executes an event's callback;
	// handBack is the process that callback asked to continue (Continue).
	inCallback bool
	handBack   *Proc

	eventsProcessed uint64
	resumes         uint64
	procsSpawned    uint64
	maxEventQueue   int
	tracer          func(TraceEvent)
	meter           any
	faults          any
}

// SetMeter binds an opaque observability registry to the environment.
// The engine never inspects it; layers built over the environment look
// it up (see internal/trace) and cache the counters they publish into.
func (e *Env) SetMeter(m any) { e.meter = m }

// Meter returns the registry bound with SetMeter, or nil.
func (e *Env) Meter() any { return e.meter }

// SetFaults binds an opaque fault-injection plan to the environment.
// Like the meter slot, the engine never inspects it; internal/faults
// installs its Injector here and the transport layers look it up.
func (e *Env) SetFaults(f any) { e.faults = f }

// Faults returns the injector bound with SetFaults, or nil.
func (e *Env) Faults() any { return e.faults }

// NewEnv returns a fresh environment. seed is unread: the engine draws
// no random numbers, and a model that needs a stream seeds its own. The
// parameter stays because the repository benchmark passes one (ROADMAP
// item 2(a)).
func NewEnv(seed int64) *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// schedule enqueues an event at absolute time at (clamped to now).
func (e *Env) schedule(at Time, p *Proc, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.evq.push(event{at: at, seq: e.seq, proc: p, fn: fn})
	if e.evq.len() > e.maxEventQueue {
		e.maxEventQueue = e.evq.len()
	}
}

// At schedules fn to run inline in the scheduler at absolute virtual time
// at. The callback must not block.
func (e *Env) At(at Time, fn func()) { e.schedule(at, nil, fn) }

// After schedules fn to run inline in the scheduler d from now. The
// callback must not block.
func (e *Env) After(d time.Duration, fn func()) { e.schedule(e.now.Add(d), nil, fn) }

// Go spawns a new process running fn. The process starts at the current
// virtual time, after the currently running process yields. Go may be
// called before Run, from within another process, or from a timer
// callback.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// GoDaemon spawns a background service process. Daemons do not count
// toward deadlock detection: a Run in which only daemons remain parked
// (e.g. protocol pumps or server agents waiting for requests) completes
// normally.
func (e *Env) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Env) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	e.procsSpawned++
	p := &Proc{env: e, name: name, daemon: daemon}
	p.liveIdx = len(e.procs)
	e.procs = append(e.procs, p)
	e.schedule(e.now, p, nil)
	// The body starts on the first resume (the start event just queued)
	// and returns to the run loop when fn does.
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); ok {
					return // Shutdown unwound us; do not touch the env.
				}
				e.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
			e.dropLive(p)
			p.done = true
		}()
		fn(p)
	})
	return p
}

// dropLive removes p from the live slice by swapping the tail into its
// slot — the intrusive-index replacement for the old live map.
func (e *Env) dropLive(p *Proc) {
	last := len(e.procs) - 1
	tail := e.procs[last]
	e.procs[p.liveIdx] = tail
	tail.liveIdx = p.liveIdx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// DeadlockError is returned by Run when live processes remain but no
// events are scheduled: every process is parked on a channel, resource or
// future that can never fire.
type DeadlockError struct {
	// Parked maps process names to a description of what each process is
	// blocked on.
	Parked map[string]string
}

func (d *DeadlockError) Error() string {
	names := make([]string, 0, len(d.Parked))
	for n := range d.Parked {
		names = append(names, n)
	}
	sort.Strings(names)
	s := "sim: deadlock:"
	for _, n := range names {
		s += fmt.Sprintf(" [%s: %s]", n, d.Parked[n])
	}
	return s
}

// Run drives the simulation until no events remain or an error occurs. It
// returns a *DeadlockError if processes remain parked with no pending
// events, or the panic error of a crashed process.
func (e *Env) Run() error { return e.run(maxTime, true) }

// RunUntil drives the simulation until virtual time exceeds limit, no
// events remain, or an error occurs. Events scheduled after limit remain
// queued and a subsequent RunUntil (or Run) may continue the run. Unlike
// Run, parked processes with no pending events are not reported as a
// deadlock: the caller may inject further stimuli before continuing.
func (e *Env) RunUntil(limit Time) error { return e.run(limit, false) }

func (e *Env) run(limit Time, detectDeadlock bool) error {
	if e.stopped {
		return fmt.Errorf("sim: environment was shut down")
	}
	e.limit = limit
	for e.evq.len() > 0 {
		if e.evq.top().at > limit {
			// Do not advance the clock beyond the limit.
			if e.now < limit {
				e.now = limit
			}
			return nil
		}
		ev := e.evq.pop()
		e.now = ev.at
		e.eventsProcessed++
		p := ev.proc
		if ev.fn != nil {
			e.trace(TraceCallback, "")
			e.inCallback = true
			ev.fn()
			e.inCallback = false
			if e.err != nil {
				return e.err
			}
			// A callback that called Continue hands the CPU to that
			// process now, inside this event.
			if p = e.handBack; p == nil {
				continue
			}
			e.handBack = nil
		}
		if p.done {
			// Stale wakeup for a finished process: counted, and the clock
			// has advanced to it, like any other event.
			continue
		}
		e.trace(TraceProcResumed, p.name)
		e.resumes++
		// The only call of a process's resume function: it returns when
		// the process yields (yieldAndPark) or its body ends.
		p.resume()
		if p.done {
			e.trace(TraceProcEnded, p.name)
		}
		if e.err != nil {
			return e.err
		}
	}
	if e.now < limit && limit < maxTime {
		e.now = limit
	}
	if detectDeadlock {
		var d *DeadlockError // allocated only on actual deadlock
		for _, p := range e.procs {
			if p.daemon {
				continue
			}
			why := p.parkedWhy
			if why == "" {
				why = "unknown"
			}
			if d == nil {
				d = &DeadlockError{Parked: map[string]string{}}
			}
			d.Parked[p.name] = why
		}
		if d != nil {
			return d
		}
	}
	return nil
}

// Shutdown ends every live process so that the environment can be
// garbage-collected without leaking goroutines: a parked process sees its
// yield fail and unwinds through its deferred calls (a deferred call that
// blocks again is unwound in turn), one that never started never runs.
// Every process has ended when Shutdown returns. The environment is
// unusable afterwards. It must not be called while Run is executing.
func (e *Env) Shutdown() {
	if e.stopped {
		return
	}
	e.stopped = true
	// Nothing is within the run limit any more, so a deferred Sleep while
	// unwinding yields (and fails) instead of taking its wake in place.
	e.limit = -1
	for _, p := range e.procs {
		p.stop()
	}
	e.procs = nil
	e.evq = eventHeap{}
}

// Proc is a simulated process. Its methods must only be called from the
// process body.
type Proc struct {
	env  *Env
	name string
	// The coroutine handles from iter.Pull: the run loop calls resume,
	// Shutdown calls stop, the body calls yield (false once stopped).
	resume    func() (struct{}, bool)
	stop      func()
	yield     func(struct{}) bool
	done      bool
	daemon    bool
	liveIdx   int    // position in env.procs (intrusive live-set slot)
	parkedWhy string // what the process is blocked on; "" when runnable
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// yieldAndPark is used by blocking primitives: the caller must already
// have registered a wakeup (a scheduled event or a waiter-queue entry).
// It yields to the run loop — the only place a process does — and
// returns when the loop resumes it; a failed yield means Shutdown is
// unwinding the process. A Sleep that would be woken by the very next
// event does not come here (SleepUntil).
func (p *Proc) yieldAndPark() {
	if !p.yield(struct{}{}) {
		panic(killSentinel{})
	}
}

// block registers the process as parked on a queue described by why and
// then yields. The primitive that later wakes the process must call
// env.wake, which clears the parked note. Callers pass preformatted
// strings (built once per primitive, not per operation) so blocking
// allocates nothing.
func (p *Proc) block(why string) {
	p.parkedWhy = why
	p.yieldAndPark()
}

// Park suspends the process until some other context resumes it with
// Env.WakeAfter or Env.Continue. It is the building block for event-chain
// code: a process issues an operation, hands its continuation to timer
// or grant callbacks, and parks exactly once instead of sleeping through
// every stage. reason describes the wait in deadlock reports; pass a
// preformatted string so parking allocates nothing.
func (p *Proc) Park(reason string) { p.block(reason) }

// WakeAfter resumes a process parked with Park d of virtual time from
// now (d 0: at the current instant, FIFO among same-time events). It is
// safe to call from timer callbacks. The wake event is sequenced at the moment WakeAfter is called, so
// calling it from a mid-chain callback preserves the same-instant FIFO
// order a staged Sleep at that point would have produced.
func (e *Env) WakeAfter(p *Proc, d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.parkedWhy = ""
	e.schedule(e.now.Add(d), p, nil)
}

// Continue hands the CPU back to p, parked with Park, as soon as the
// calling callback returns: p resumes at this instant, inside the event
// that ran the callback and therefore ahead of every event already
// queued for the instant — exactly where a blocking call woken by this
// event would have continued. No event is scheduled or counted. It is
// the only way a callback gives a process the CPU without an event, for
// event chains that end by returning to blocking code; WakeAfter(p, 0)
// queues p behind the instant's earlier events, which is a different
// schedule.
//
// Only a callback run by the scheduler as an event (a timer, a dispatched
// grant, or anything they call) may call Continue, at most once: the run
// loop has one CPU to hand over. Anything else is a bug and panics.
func (e *Env) Continue(p *Proc) {
	if e.handBack != nil {
		panic(fmt.Sprintf("sim: Continue(%q): this callback already continued %q", p.name, e.handBack.name))
	}
	if !e.inCallback {
		panic(fmt.Sprintf("sim: Continue(%q) called outside a scheduler callback", p.name))
	}
	p.parkedWhy = ""
	e.handBack = p
}

// wake schedules p to resume at the current instant (FIFO among same-time
// events) and clears its parked note.
func (e *Env) wake(p *Proc) {
	p.parkedWhy = ""
	e.schedule(e.now, p, nil)
}

// Sleep suspends the process for d of virtual time. Non-positive durations
// yield and resume at the same instant (after already-queued same-time
// events).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.env.now.Add(d))
}

// SleepUntil suspends the process until virtual time t (or yields once if
// t is in the past).
//
// A wake that would head the queue — nothing is pending, or everything
// pending is strictly later — within the run limit is the next event
// whoever pops it, so the process takes it in place: it draws the
// sequence number, counts the event and the queue's high-water mark the
// push would have, and advances the clock, without touching the heap or
// yielding. The counters, the tracer's events and every later pop are
// those of the push and the run loop's pop. A later wake is pushed behind an earlier-or-equal head, so a
// process never parks on a wake that heads the queue.
func (p *Proc) SleepUntil(t Time) {
	e := p.env
	if t < e.now {
		t = e.now
	}
	if e.err == nil && t <= e.limit && (e.evq.len() == 0 || t < e.evq.top().at) {
		e.seq++
		if e.evq.len() >= e.maxEventQueue {
			e.maxEventQueue = e.evq.len() + 1
		}
		e.now = t
		e.eventsProcessed++
		e.trace(TraceProcResumed, p.name)
		return
	}
	e.schedule(t, p, nil)
	p.yieldAndPark()
}

// EngineStats reports the engine's activity counters.
type EngineStats struct {
	// EventsProcessed counts scheduler events executed so far.
	EventsProcessed uint64
	// Resumes counts control transfers from the run loop into a process —
	// the host cost events alone do not show. A Sleep that takes its own
	// wakeup in place without yielding (SleepUntil) is an event, not a
	// resume.
	Resumes uint64
	// ProcsSpawned counts processes ever created.
	ProcsSpawned uint64
	// ProcsLive counts processes not yet finished.
	ProcsLive int
	// MaxEventQueue is the high-water mark of the pending event queue.
	MaxEventQueue int
}

// Stats returns the engine's activity counters.
func (e *Env) Stats() EngineStats {
	return EngineStats{
		EventsProcessed: e.eventsProcessed,
		Resumes:         e.resumes,
		ProcsSpawned:    e.procsSpawned,
		ProcsLive:       len(e.procs),
		MaxEventQueue:   e.maxEventQueue,
	}
}

// TraceEventKind classifies tracer callbacks.
type TraceEventKind int

// The traced occurrences.
const (
	// TraceProcResumed fires when a process is resumed.
	TraceProcResumed TraceEventKind = iota
	// TraceProcEnded fires when a process function returns.
	TraceProcEnded
	// TraceCallback fires when a timer callback executes.
	TraceCallback
)

// TraceEvent is one scheduler occurrence delivered to the tracer.
type TraceEvent struct {
	Kind TraceEventKind
	At   Time
	// Proc is the process name (empty for callbacks).
	Proc string
}

// SetTracer installs fn to observe every scheduler step — the execution
// timeline of the simulation. A nil fn disables tracing. The tracer runs
// inline in the scheduler: keep it cheap and never block. It only
// observes: the events executed, their order and the engine counters are
// the same with and without it.
func (e *Env) SetTracer(fn func(TraceEvent)) { e.tracer = fn }

func (e *Env) trace(kind TraceEventKind, proc string) {
	if e.tracer != nil {
		e.tracer(TraceEvent{Kind: kind, At: e.now, Proc: proc})
	}
}
