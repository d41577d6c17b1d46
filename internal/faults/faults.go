// Package faults is the framework's deterministic fault-injection and
// failure-model layer. A Plan is a seeded list of events — node crashes
// and restarts, link partitions, added link delay, probabilistic link
// loss — pinned to virtual-time instants. Install schedules the plan on
// a simulation environment and binds an Injector to it through the
// engine's opaque faults slot (sim.Env.SetFaults, mirroring the trace
// registry's meter slot); the transport layers (internal/verbs,
// internal/fabric) look the injector up with Of and consult it on every
// operation.
//
// Determinism: the plan's events fire through the engine's ordinary
// event queue, and loss decisions draw from the injector's own PRNG
// (seeded from Plan.Seed), never from the environment's. The same plan
// and seed therefore replay byte-identically, and with no plan installed
// the engine's event and random streams are exactly what they would be
// if this package were not linked at all.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ngdc/internal/sim"
)

// Kind enumerates the fault event types a plan can schedule.
type Kind int

const (
	// Crash marks a node failed: it stops serving one-sided operations,
	// its in-flight work completes with flush errors, and messages to or
	// from it are dropped.
	Crash Kind = iota
	// Restart clears a node's crashed state. Memory contents are NOT
	// restored: registered regions were zeroed at crash time, modelling
	// a reboot with cold memory.
	Restart
	// Partition cuts the link between nodes A and B in both directions.
	Partition
	// Heal undoes a Partition between A and B.
	Heal
	// Delay adds Extra to every message latency on the A<->B link.
	Delay
	// Loss drops each message on the A<->B link with probability Prob.
	Loss
)

var kindNames = [...]string{"crash", "restart", "partition", "heal", "delay", "loss"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault. Node is the target of Crash/Restart;
// A and B name the link endpoints of Partition/Heal/Delay/Loss.
type Event struct {
	At    time.Duration // virtual instant the fault fires
	Kind  Kind
	Node  int           // Crash, Restart
	A, B  int           // Partition, Heal, Delay, Loss
	Extra time.Duration // Delay: added per-message latency
	Prob  float64       // Loss: drop probability in [0,1]
}

// String renders the event in the textual plan grammar accepted by
// Parse, so Parse(plan.String()) round-trips.
func (ev Event) String() string {
	switch ev.Kind {
	case Crash, Restart:
		return fmt.Sprintf("%s@%s node=%d", ev.Kind, ev.At, ev.Node)
	case Delay:
		return fmt.Sprintf("%s@%s a=%d b=%d add=%s", ev.Kind, ev.At, ev.A, ev.B, ev.Extra)
	case Loss:
		return fmt.Sprintf("%s@%s a=%d b=%d p=%g", ev.Kind, ev.At, ev.A, ev.B, ev.Prob)
	default:
		return fmt.Sprintf("%s@%s a=%d b=%d", ev.Kind, ev.At, ev.A, ev.B)
	}
}

// Plan is a seeded fault schedule. The zero value (no events) is a
// valid empty plan; a nil *Plan means "no faults".
type Plan struct {
	Seed   int64 // seeds the injector's private PRNG (loss decisions)
	Events []Event
}

// String renders the plan in the grammar accepted by Parse.
func (p *Plan) String() string {
	s := fmt.Sprintf("seed=%d", p.Seed)
	for _, ev := range p.Events {
		s += "; " + ev.String()
	}
	return s
}

// Stats counts what the injector actually did during a run.
type Stats struct {
	Crashes  int // crash events fired
	Restarts int // restart events fired
	Drops    int // messages dropped by loss or reachability checks
	Delayed  int // messages charged added link delay
}

// link is an undirected node pair, stored normalized (low, high).
type link struct{ a, b int }

func mklink(a, b int) link {
	if a > b {
		a, b = b, a
	}
	return link{a, b}
}

// Injector is the live fault state a plan produces: which nodes are
// down, which links are cut, delayed or lossy, right now in virtual
// time. All methods are nil-safe — a nil *Injector reports a fully
// healthy cluster — so transport code can hold one pointer and consult
// it unconditionally.
type Injector struct {
	rng   *rand.Rand
	down  map[int]bool
	cut   map[link]bool
	delay map[link]time.Duration
	loss  map[link]float64
	stats Stats

	onCrash []func(node int)
}

// Install schedules plan on env and binds the resulting Injector to the
// environment's faults slot. Call it before constructing the network
// layers (they cache the injector at attach time, like trace counters).
// A nil or empty plan installs nothing and returns nil.
func Install(env *sim.Env, plan *Plan) *Injector {
	if plan == nil || len(plan.Events) == 0 {
		return nil
	}
	inj := &Injector{
		rng:   rand.New(rand.NewSource(plan.Seed)),
		down:  map[int]bool{},
		cut:   map[link]bool{},
		delay: map[link]time.Duration{},
		loss:  map[link]float64{},
	}
	// Schedule in a stable order: by instant, then plan position (the
	// engine breaks same-instant ties FIFO by scheduling order).
	idx := make([]int, len(plan.Events))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return plan.Events[idx[i]].At < plan.Events[idx[j]].At
	})
	for _, i := range idx {
		ev := plan.Events[i]
		env.At(sim.Time(ev.At), func() { inj.fire(ev) })
	}
	env.SetFaults(inj)
	return inj
}

// Of returns the injector bound to env, or nil when no plan is active.
func Of(env *sim.Env) *Injector {
	inj, _ := env.Faults().(*Injector)
	return inj
}

// fire applies one event to the live state and notifies subscribers.
// It runs as a scheduler callback and must not block.
func (inj *Injector) fire(ev Event) {
	switch ev.Kind {
	case Crash:
		if inj.down[ev.Node] {
			return
		}
		inj.down[ev.Node] = true
		inj.stats.Crashes++
		for _, fn := range inj.onCrash {
			fn(ev.Node)
		}
	case Restart:
		if !inj.down[ev.Node] {
			return
		}
		delete(inj.down, ev.Node)
		inj.stats.Restarts++
	case Partition:
		inj.cut[mklink(ev.A, ev.B)] = true
	case Heal:
		delete(inj.cut, mklink(ev.A, ev.B))
	case Delay:
		if ev.Extra <= 0 {
			delete(inj.delay, mklink(ev.A, ev.B))
		} else {
			inj.delay[mklink(ev.A, ev.B)] = ev.Extra
		}
	case Loss:
		if ev.Prob <= 0 {
			delete(inj.loss, mklink(ev.A, ev.B))
		} else {
			inj.loss[mklink(ev.A, ev.B)] = ev.Prob
		}
	}
}

// OnCrash registers fn to run (in scheduler context) whenever a node
// crashes. Layers use it to flush in-flight state: verbs tears down
// the dead node's connection records and zeroes its registered memory.
func (inj *Injector) OnCrash(fn func(node int)) {
	if inj == nil {
		return
	}
	inj.onCrash = append(inj.onCrash, fn)
}

// Down reports whether node is currently crashed.
func (inj *Injector) Down(node int) bool {
	return inj != nil && inj.down[node]
}

// Reachable reports whether a message from node a can reach node b
// right now: both ends up and no partition across the link.
func (inj *Injector) Reachable(a, b int) bool {
	if inj == nil {
		return true
	}
	return !inj.down[a] && !inj.down[b] && !inj.cut[mklink(a, b)]
}

// LinkDelay returns the added latency active on the a<->b link (zero
// for healthy links).
func (inj *Injector) LinkDelay(a, b int) time.Duration {
	if inj == nil {
		return 0
	}
	return inj.delay[mklink(a, b)]
}

// Faulted reports whether the a<->b link deviates from the healthy
// cost model at all (delay or loss active, endpoint down, or cut).
// Transports use it to keep their pooled constant-latency fast paths
// when the link is clean.
func (inj *Injector) Faulted(a, b int) bool {
	if inj == nil {
		return false
	}
	l := mklink(a, b)
	return inj.down[a] || inj.down[b] || inj.cut[l] || inj.delay[l] != 0 || inj.loss[l] != 0
}

// DropMsg decides whether a message crossing the a<->b link is lost.
// It consumes the injector's PRNG only when a loss rate is active on
// that link, so healthy links never perturb the random stream.
func (inj *Injector) DropMsg(a, b int) bool {
	if inj == nil {
		return false
	}
	p := inj.loss[mklink(a, b)]
	if p <= 0 {
		return false
	}
	if inj.rng.Float64() < p {
		inj.stats.Drops++
		return true
	}
	return false
}

// NoteDrop records a message dropped for reachability reasons (crash or
// partition) so Stats counts it alongside probabilistic losses.
func (inj *Injector) NoteDrop() {
	if inj != nil {
		inj.stats.Drops++
	}
}

// NoteDelay records a message that was charged added link delay.
func (inj *Injector) NoteDelay() {
	if inj != nil {
		inj.stats.Delayed++
	}
}

// Stats returns the injector's action counters so far (zero value for
// a nil injector).
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	return inj.stats
}
