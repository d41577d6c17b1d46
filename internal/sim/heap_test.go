package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestEventHeapFIFOTieBreak verifies the property the whole engine's
// determinism rests on: among events scheduled for the same instant, the
// 4-ary heap pops them in scheduling (seq) order.
func TestEventHeapFIFOTieBreak(t *testing.T) {
	var h eventHeap
	var seq uint64
	// Three instants, eight same-instant events each, pushed interleaved
	// across the instants so tie-break must come from seq, not push order
	// within a run of equal keys.
	for round := 0; round < 8; round++ {
		for _, at := range []Time{30, 10, 20} {
			seq++
			h.push(event{at: at, seq: seq})
		}
	}
	var lastAt Time = -1
	var lastSeq uint64
	for h.len() > 0 {
		ev := h.pop()
		if ev.at < lastAt {
			t.Fatalf("popped at=%d after at=%d", ev.at, lastAt)
		}
		if ev.at == lastAt && ev.seq <= lastSeq {
			t.Fatalf("same-instant events out of FIFO order: seq %d after %d at t=%d",
				ev.seq, lastSeq, ev.at)
		}
		lastAt, lastSeq = ev.at, ev.seq
	}
}

// TestEventHeapRandomized pushes events with random times (seq assigned
// in push order and pushes never before the current pop horizon, exactly
// as the engine schedules) and checks the pop sequence is the exact
// (at, seq) lexicographic order — i.e. time order with FIFO tie-break —
// under interleaved pushes and pops.
func TestEventHeapRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	var seq uint64
	var lastAt Time
	var lastSeq uint64
	push := func() {
		seq++
		h.push(event{at: lastAt + Time(rng.Intn(8)), seq: seq})
	}
	pop := func() {
		before := h.len()
		ev := h.pop()
		if h.len() != before-1 {
			t.Fatalf("pop did not shrink heap: %d -> %d", before, h.len())
		}
		if ev.at < lastAt || (ev.at == lastAt && ev.seq <= lastSeq) {
			t.Fatalf("pop order violated: (%d,%d) after (%d,%d)", ev.at, ev.seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = ev.at, ev.seq
	}
	for i := 0; i < 2000; i++ {
		push()
	}
	for i := 0; i < 5000; i++ {
		if h.len() == 0 || rng.Intn(2) == 0 {
			push()
		} else {
			pop()
		}
	}
	for h.len() > 0 {
		pop()
	}
}

// oracleHeap is a container/heap reference implementation of the
// engine's strict (at, seq) order — deliberately the dumbest possible
// correct queue, used to differentially test the engine's 4-ary heap.
type oracleHeap []event

func (o oracleHeap) Len() int           { return len(o) }
func (o oracleHeap) Less(i, j int) bool { return o[i].before(&o[j]) }
func (o oracleHeap) Swap(i, j int)      { o[i], o[j] = o[j], o[i] }
func (o *oracleHeap) Push(x any)        { *o = append(*o, x.(event)) }
func (o *oracleHeap) Pop() any {
	old := *o
	n := len(old) - 1
	ev := old[n]
	*o = old[:n]
	return ev
}

// queuePair drives the engine's heap and the oracle in lockstep,
// mirroring the engine's contract: seq strictly increases per push, and
// a push's time is never below the time of the last popped event (the
// schedule() clamp).
type queuePair struct {
	t      *testing.T
	q      eventHeap
	oracle oracleHeap
	seq    uint64
	now    Time // time of the last popped event
}

func (p *queuePair) push(at Time) {
	if at < p.now {
		at = p.now
	}
	p.seq++
	ev := event{at: at, seq: p.seq}
	p.q.push(ev)
	heap.Push(&p.oracle, ev)
}

func (p *queuePair) pop() event {
	if p.q.len() != len(p.oracle) {
		p.t.Fatalf("length diverged: heap %d, oracle %d", p.q.len(), len(p.oracle))
	}
	want := heap.Pop(&p.oracle).(event)
	if top := p.q.top(); top.at != want.at || top.seq != want.seq {
		p.t.Fatalf("top diverged: heap (%d,%d), oracle (%d,%d) [pending %d]",
			top.at, top.seq, want.at, want.seq, len(p.oracle)+1)
	}
	got := p.q.pop()
	if got.at != want.at || got.seq != want.seq {
		p.t.Fatalf("pop diverged: heap (%d,%d), oracle (%d,%d) [pending %d]",
			got.at, got.seq, want.at, want.seq, len(p.oracle)+1)
	}
	if got.at < p.now {
		p.t.Fatalf("pop went backwards: %d after %d", got.at, p.now)
	}
	p.now = got.at
	return got
}

func (p *queuePair) drain() {
	for p.q.len() > 0 {
		p.pop()
	}
}

// driverDelays are re-arm delays of the shape a workload's closed-loop
// drivers produce: a handful of constants, 0 and 8 ns among them, so
// many events share an instant and which sibling is smallest changes
// from pop to pop.
var driverDelays = [...]Time{0, 8, 300, 1000, 1700, 2500, 3100, 12_000}

// rearm pops the next event and schedules its successor one driver delay
// later, the step every E18 driver takes.
func (p *queuePair) rearm(rng *rand.Rand) {
	p.pop()
	p.push(p.now + driverDelays[rng.Intn(len(driverDelays))])
}

// runDifferential drives one randomized workload shaped by rng against
// both queues. The mixture covers the regimes the engine produces and
// some it does not: same-instant bursts (wake storms), short timers near
// now, spread-out timers (which deepen the queue), far-future spikes
// (events that sit at the bottom of the heap while thousands pass over
// them), runs of driver re-arms at constant depth, and bulk drains.
func runDifferential(t *testing.T, rng *rand.Rand, ops int) {
	p := &queuePair{t: t}
	for i := 0; i < ops; i++ {
		switch k := rng.Intn(11); {
		case k < 4: // short timer near now
			p.push(p.now + Time(rng.Intn(64)))
		case k < 6: // same-instant burst
			n := 1 + rng.Intn(32)
			at := p.now + Time(rng.Intn(16))
			for j := 0; j < n; j++ {
				p.push(at)
			}
		case k < 8: // spread-out timer (deepens the queue)
			p.push(p.now + Time(rng.Intn(100_000)))
		case k == 8: // far-future spike, occasionally maxTime-adjacent
			at := p.now + Time(rng.Intn(1_000_000_000))
			if rng.Intn(32) == 0 {
				at = maxTime - Time(rng.Intn(1000))
			}
			p.push(at)
		case k == 9: // driver re-arms: pop one, push its successor
			n := 1 + rng.Intn(64)
			for j := 0; j < n && p.q.len() > 0; j++ {
				p.rearm(rng)
			}
		default: // pop a run
			n := 1 + rng.Intn(16)
			for j := 0; j < n && p.q.len() > 0; j++ {
				p.pop()
			}
		}
	}
	p.drain()
}

// TestEventQueueDifferential cross-checks the engine's heap against the
// container/heap oracle over many randomized workloads: every pop (and
// every top) must match the oracle exactly, which is the engine's
// bit-for-bit determinism requirement.
func TestEventQueueDifferential(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferential(t, rand.New(rand.NewSource(seed)), 12_000)
		})
	}
}

// TestEventQueueDifferentialDeep forces a pending population three
// orders of magnitude deeper than any workload builds (nine heap levels)
// before draining.
func TestEventQueueDifferentialDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := &queuePair{t: t}
	// Deep uniform population.
	for i := 0; i < 200_000; i++ {
		p.push(Time(rng.Intn(1_000_000)))
	}
	// Interleave pops with pushes that chase the advancing clock.
	for i := 0; i < 400_000; i++ {
		if i%2 == 0 {
			p.pop()
		} else if rng.Intn(4) == 0 {
			p.push(p.now + Time(rng.Intn(2_000_000)))
		} else {
			p.push(p.now + Time(rng.Intn(500)))
		}
	}
	p.drain()
}

// TestEventQueueDifferentialDriverShaped runs the queue at the depth and
// delay mix the workloads run, where the pop's sibling tournament does
// all the work: 64 pending events (one per E18 driver), each pop followed
// by one re-arm at a driver delay. It then drains to each depth from 7
// down to 1 and re-arms there, so every node shape with fewer than four
// children is sifted through as well.
func TestEventQueueDifferentialDriverShaped(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	p := &queuePair{t: t}
	for i := 0; i < 64; i++ {
		p.push(driverDelays[i%len(driverDelays)])
	}
	for i := 0; i < 200_000; i++ {
		p.rearm(rng)
	}
	for depth := 7; depth >= 1; depth-- {
		for p.q.len() > depth {
			p.pop()
		}
		for i := 0; i < 2_000; i++ {
			p.rearm(rng)
		}
	}
	p.drain()
}

// TestEventOrderForms pins the tournament's arithmetic order, less, to
// the heap order, before, where the two spellings could part: equal
// instants, the ends of virtual time, adjacent and extreme sequence
// numbers.
func TestEventOrderForms(t *testing.T) {
	cases := []struct{ a, b event }{
		{event{at: 5, seq: 1}, event{at: 5, seq: 2}},
		{event{at: 5, seq: 7}, event{at: 5, seq: 7}},
		{event{at: 0, seq: 9}, event{at: maxTime, seq: 1}},
		{event{at: 0, seq: 0}, event{at: 0, seq: 1}},
		{event{at: maxTime, seq: 41}, event{at: maxTime, seq: 42}},
		{event{at: 1, seq: math.MaxUint64}, event{at: 2, seq: 0}},
		{event{at: 3, seq: 0}, event{at: 3, seq: math.MaxUint64}},
		{event{at: maxTime - 1, seq: math.MaxUint64}, event{at: maxTime, seq: 0}},
	}
	for _, c := range cases {
		for _, pair := range [][2]*event{{&c.a, &c.b}, {&c.b, &c.a}} {
			x, y := pair[0], pair[1]
			if got, want := less(x, y) == 1, x.before(y); got != want {
				t.Errorf("(%d,%d) vs (%d,%d): less says %v, before says %v", x.at, x.seq, y.at, y.seq, got, want)
			}
		}
	}
}

// TestEventQueueShrinksAfterBurst checks the post-burst storage policy:
// a scheduling spike may grow the heap's backing array to the burst
// high-water mark, but once the population settles back down the array
// must halve its way back toward the shrink floor instead of pinning
// burst-sized memory for the rest of a long run.
func TestEventQueueShrinksAfterBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := &queuePair{t: t}
	// Burst: a deep population spread over a second of virtual time.
	for i := 0; i < 200_000; i++ {
		p.push(p.now + Time(rng.Intn(1_000_000_000)))
	}
	high := cap(p.q.ev)
	if high < 100_000 {
		t.Fatalf("burst high-water cap = %d, expected the burst to grow the heap", high)
	}
	// Settle: drain to a small steady population, then run a steady
	// trickle of short timers at constant depth.
	for p.q.len() > 64 {
		p.pop()
	}
	for i := 0; i < 4096; i++ {
		p.push(p.now + Time(rng.Intn(64)))
		p.pop()
	}
	if c := cap(p.q.ev); c > heapShrinkFloor {
		t.Errorf("heap cap = %d after settling, want <= %d (burst high-water %d)",
			c, heapShrinkFloor, high)
	}
	p.drain()
}

// TestEventQueueSteadyStateAllocs asserts the heap's steady state is
// allocation-free: once the backing array has reached its high-water
// cap, a constant-depth push/pop workload mallocs nothing.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	var q eventHeap
	var seq uint64
	var now Time
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() Time {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return now + Time(1+rng%20_000_000)
	}
	for i := 0; i < 20_000; i++ {
		seq++
		q.push(event{at: next(), seq: seq})
	}
	batch := func() {
		for i := 0; i < 2_000; i++ {
			ev := q.pop()
			now = ev.at
			seq++
			q.push(event{at: next(), seq: seq})
		}
	}
	// The array already holds the constant depth, so there is nothing to
	// warm beyond the run AllocsPerRun itself discards.
	if allocs := testing.AllocsPerRun(20, batch); allocs > 0 {
		t.Errorf("steady-state churn allocates %.2f allocs per 2000-op batch, want 0", allocs)
	}
}

// FuzzEventQueueOrder is the fuzz entry for the same differential
// property: any (seed, size) pair must produce oracle-identical pop
// sequences.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add(int64(1), uint16(1000))
	f.Add(int64(42), uint16(60000))
	f.Add(int64(7), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		runDifferential(t, rand.New(rand.NewSource(seed)), int(ops))
	})
}
