package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv(1)
	var at Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(5*time.Microsecond) {
		t.Fatalf("woke at %v, want 5µs", at)
	}
	if e.Now() != at {
		t.Fatalf("env clock %v, want %v", e.Now(), at)
	}
}

func TestSleepNegativeClampsToZero(t *testing.T) {
	e := NewEnv(1)
	e.Go("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSameInstantFIFOOrder(t *testing.T) {
	e := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Millisecond) // all wake at the same instant
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestTimerCallbacks(t *testing.T) {
	e := NewEnv(1)
	var fired []Time
	e.After(3*time.Microsecond, func() { fired = append(fired, e.Now()) })
	e.At(Time(time.Microsecond), func() { fired = append(fired, e.Now()) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != Time(time.Microsecond) || fired[1] != Time(3*time.Microsecond) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEnv(1)
	done := false
	e.Go("late", func(p *Proc) {
		p.Sleep(time.Second)
		done = true
	})
	if err := e.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("process past limit ran")
	}
	if e.Now() != Time(time.Millisecond) {
		t.Fatalf("clock %v, want 1ms", e.Now())
	}
	// Continue the run.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || e.Now() != Time(time.Second) {
		t.Fatalf("continuation failed: done=%v now=%v", done, e.Now())
	}
	e.Shutdown()
}

func TestChanSendRecv(t *testing.T) {
	e := NewEnv(1)
	c := NewChan[int](e, "c", 0)
	var got []int
	e.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := c.Recv(p)
			if !ok {
				t.Error("unexpected close")
			}
			got = append(got, v)
		}
	})
	e.Go("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Microsecond)
			c.Send(p, i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestChanBufferedSenderDoesNotBlock(t *testing.T) {
	e := NewEnv(1)
	c := NewChan[int](e, "c", 2)
	var sendDone Time
	e.Go("send", func(p *Proc) {
		c.Send(p, 1)
		c.Send(p, 2)
		sendDone = p.Now()
	})
	e.Go("recv", func(p *Proc) {
		p.Sleep(time.Second)
		c.Recv(p)
		c.Recv(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 0 {
		t.Fatalf("buffered sends blocked until %v", sendDone)
	}
}

func TestChanUnbufferedSenderBlocks(t *testing.T) {
	e := NewEnv(1)
	c := NewChan[int](e, "c", 0)
	var sendDone Time
	e.Go("send", func(p *Proc) {
		c.Send(p, 1)
		sendDone = p.Now()
	})
	e.Go("recv", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Recv(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != Time(time.Millisecond) {
		t.Fatalf("unbuffered send completed at %v, want 1ms", sendDone)
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	e := NewEnv(1)
	c := NewChan[int](e, "c", 0)
	okSeen := true
	e.Go("recv", func(p *Proc) {
		_, ok := c.Recv(p)
		okSeen = ok
	})
	e.Go("closer", func(p *Proc) {
		p.Sleep(time.Microsecond)
		c.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if okSeen {
		t.Fatal("receiver not notified of close")
	}
}

func TestChanPostSendFromCallback(t *testing.T) {
	e := NewEnv(1)
	c := NewChan[string](e, "c", 0)
	var got string
	e.Go("recv", func(p *Proc) { got, _ = c.Recv(p) })
	e.After(time.Microsecond, func() { c.PostSend("hello") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestChanTryRecv(t *testing.T) {
	e := NewEnv(1)
	c := NewChan[int](e, "c", 4)
	e.Go("p", func(p *Proc) {
		if _, ok := c.TryRecv(); ok {
			t.Error("TryRecv on empty chan succeeded")
		}
		c.Send(p, 7)
		v, ok := c.TryRecv()
		if !ok || v != 7 {
			t.Errorf("TryRecv = %d, %v", v, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceContention(t *testing.T) {
	e := NewEnv(1)
	cpu := NewResource(e, "cpu", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("task%d", i), func(p *Proc) {
			cpu.Use(p, 1, 10*time.Microsecond)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * time.Microsecond), Time(20 * time.Microsecond), Time(30 * time.Microsecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFONoBarging(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "r", 2)
	var order []string
	e.Go("hold", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(time.Millisecond)
		r.Release(2)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(time.Microsecond)
		r.Acquire(p, 2)
		order = append(order, "big")
		r.Release(2)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" {
		t.Fatalf("order %v: small barged past big", order)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv(1)
	c := NewChan[int](e, "never", 0)
	e.Go("stuck", func(p *Proc) { c.Recv(p) })
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	reason, ok := d.Parked["stuck"]
	if !ok || reason == "" {
		t.Fatalf("deadlock report %v missing process or reason", d.Parked)
	}
	if want := "[stuck: " + reason + "]"; !contains(d.Error(), want) {
		t.Fatalf("Error() = %q, want it to contain %q", d.Error(), want)
	}
	e.Shutdown()
}

func TestProcessPanicSurfacesAsError(t *testing.T) {
	e := NewEnv(1)
	e.Go("bomb", func(p *Proc) { panic("boom") })
	err := e.Run()
	if err == nil || !contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic error", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestShutdownTerminatesProcesses(t *testing.T) {
	e := NewEnv(1)
	c := NewChan[int](e, "c", 0)
	for i := 0; i < 10; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) { c.Recv(p) })
	}
	if err := e.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if err := e.Run(); err == nil {
		t.Fatal("Run after Shutdown should fail")
	}
}

func TestDeterminism(t *testing.T) {
	trace := func() []string {
		e := NewEnv(42)
		defer e.Shutdown()
		rng := rand.New(rand.NewSource(42))
		var tr []string
		c := NewChan[int](e, "c", 1)
		for i := 0; i < 4; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					c.Send(p, i)
				}
			})
		}
		e.Go("sink", func(p *Proc) {
			for k := 0; k < 12; k++ {
				v, _ := c.Recv(p)
				tr = append(tr, fmt.Sprintf("%v:%d", p.Now(), v))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// Property: for any set of sleep durations, processes finish in sorted
// order of duration and the clock ends at the maximum.
func TestPropertySleepOrdering(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 64 {
			durs = durs[:64]
		}
		e := NewEnv(7)
		var finished []time.Duration
		for i, d := range durs {
			d := time.Duration(d) * time.Nanosecond
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				finished = append(finished, d)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		var max time.Duration
		for i := 1; i < len(finished); i++ {
			if finished[i] < finished[i-1] {
				return false
			}
		}
		for _, d := range finished {
			if d > max {
				max = d
			}
		}
		return e.Now() == Time(max) && len(finished) == len(durs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a channel delivers every sent value exactly once, in FIFO
// order per sender, regardless of buffer capacity.
func TestPropertyChanConservation(t *testing.T) {
	f := func(capacity uint8, counts []uint8) bool {
		e := NewEnv(11)
		defer e.Shutdown()
		rng := rand.New(rand.NewSource(11))
		c := NewChan[int](e, "c", int(capacity%8))
		if len(counts) > 8 {
			counts = counts[:8]
		}
		total := 0
		for s, n := range counts {
			n := int(n % 16)
			total += n
			s := s
			e.Go(fmt.Sprintf("s%d", s), func(p *Proc) {
				for k := 0; k < n; k++ {
					p.Sleep(time.Duration(rng.Intn(50)))
					c.Send(p, s*1000+k)
				}
			})
		}
		perSender := map[int]int{}
		got := 0
		e.Go("sink", func(p *Proc) {
			for got < total {
				v, _ := c.Recv(p)
				s, k := v/1000, v%1000
				if perSender[s] != k {
					t.Errorf("sender %d out of order: got %d want %d", s, k, perSender[s])
				}
				perSender[s]++
				got++
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: resource accounting never exceeds capacity and ends at zero.
func TestPropertyResourceAccounting(t *testing.T) {
	f := func(capacity uint8, tasks []uint8) bool {
		cp := int(capacity%4) + 1
		e := NewEnv(13)
		r := NewResource(e, "r", cp)
		if len(tasks) > 32 {
			tasks = tasks[:32]
		}
		ok := true
		for i, tk := range tasks {
			n := int(tk)%cp + 1
			d := time.Duration(tk) * time.Nanosecond
			e.Go(fmt.Sprintf("t%d", i), func(p *Proc) {
				r.Acquire(p, n)
				if r.InUse() > cp {
					ok = false
				}
				p.Sleep(d)
				r.Release(n)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok && r.InUse() == 0 && r.q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGoFromProcessAndCallback(t *testing.T) {
	e := NewEnv(1)
	ran := map[string]bool{}
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Microsecond)
		e.Go("child", func(p *Proc) { ran["child"] = true })
		p.Sleep(time.Microsecond)
	})
	e.After(2*time.Microsecond, func() {
		e.Go("cb-child", func(p *Proc) { ran["cb-child"] = true })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran["child"] || !ran["cb-child"] {
		t.Fatalf("ran = %v", ran)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500 * time.Nanosecond).String(); got != "1.5µs" {
		t.Fatalf("Time.String() = %q", got)
	}
	if Time(time.Second).Duration() != time.Second {
		t.Fatal("Duration round-trip failed")
	}
	if Time(0).Add(time.Minute) != Time(time.Minute) {
		t.Fatal("Add failed")
	}
}

func TestTimeAddSaturates(t *testing.T) {
	cases := []struct {
		t    Time
		d    time.Duration
		want Time
	}{
		{Time(100), time.Second, Time(100 + int64(time.Second))},
		{maxTime, time.Nanosecond, maxTime},                  // sentinel stays put
		{maxTime - 10, time.Minute, maxTime},                 // overshoots the sentinel
		{maxTime, time.Duration(1<<63 - 1), maxTime},         // int64 wraparound
		{Time(1<<62 - 5), time.Duration(1<<62 - 5), maxTime}, // sum past sentinel, no wrap
		{Time(5), -10 * time.Nanosecond, Time(0)},            // before the epoch
		{Time(0), time.Duration(-1 << 62), Time(0)},          // deep underflow
		{Time(100), -40 * time.Nanosecond, Time(60)},         // ordinary negative d
		{maxTime, time.Duration(-1), maxTime - 1},            // backing off the sentinel
	}
	for _, c := range cases {
		if got := c.t.Add(c.d); got != c.want {
			t.Errorf("Time(%d).Add(%d) = %d, want %d", c.t, c.d, got, c.want)
		}
	}
	// The failure mode the saturation exists to prevent: a timer armed
	// near the end of virtual time must stay in the future rather than
	// wrap negative and fire as if it were overdue.
	if got := maxTime.Add(time.Hour); got < maxTime {
		t.Fatalf("overflowed Add went backwards: %d", got)
	}
}

func TestEngineStats(t *testing.T) {
	e := NewEnv(1)
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Microsecond)
			p.Sleep(time.Microsecond)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ProcsSpawned != 3 || st.ProcsLive != 0 {
		t.Fatalf("procs: %+v", st)
	}
	// 3 starts + 2 sleeps each = at least 9 events.
	if st.EventsProcessed < 9 {
		t.Fatalf("events = %d", st.EventsProcessed)
	}
	if st.MaxEventQueue < 3 {
		t.Fatalf("max queue = %d", st.MaxEventQueue)
	}
}

// TestResumesCountControlTransfers: Resumes counts the run loop handing
// the CPU to a process, not events. A process consuming its own wakeup
// keeps running (an event, no resume), a timer callback is an event, and
// a wake for a finished process is popped without a transfer.
func TestResumesCountControlTransfers(t *testing.T) {
	e := NewEnv(1)
	solo := e.Go("solo", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Microsecond) // nothing else queued: no yield
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.EventsProcessed != 4 || st.Resumes != 1 {
		t.Fatalf("solo sleeper: %+v, want 4 events and the start as the only resume", st)
	}
	e.After(time.Microsecond, func() {})
	e.WakeAfter(solo, 0) // stale: solo has returned
	e.Go("parker", func(p *Proc) {
		e.After(time.Microsecond, func() { e.WakeAfter(p, 0) })
		p.Park("until the callback wakes it") // yields: the callback is next
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Callback, stale wake, start, second callback, wake: the start and
	// the wake are the resumes.
	if st := e.Stats(); st.EventsProcessed != 9 || st.Resumes != 3 {
		t.Fatalf("after the second run: %+v, want 9 events and 3 resumes", st)
	}
}

// TestSleepInPlace: a Sleep whose wake would head the queue advances the
// clock in place; one that ties the top instant or loses to it queues and
// yields. Either way the sequence number, the event count, the queue's
// high-water mark, the pop order and the tracer's steps are those of a
// push followed by the run loop's pop. The process schedules two
// callbacks, at 2 µs and 5 µs, and then sleeps.
func TestSleepInPlace(t *testing.T) {
	us := Time(time.Microsecond)
	for _, tc := range []struct {
		name    string
		sleep   time.Duration
		resumes uint64
		trace   string
	}{
		{"heads", time.Microsecond, 1, "p@0 p@1000 end@1000 cb@2000 cb@5000"},
		{"ties", 2 * time.Microsecond, 2, "p@0 cb@2000 p@2000 end@2000 cb@5000"},
		{"loses", 3 * time.Microsecond, 2, "p@0 cb@2000 p@3000 end@3000 cb@5000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var steps []string
			e := NewEnv(1)
			e.SetTracer(func(ev TraceEvent) {
				steps = append(steps, fmt.Sprintf("%s@%d", map[TraceEventKind]string{
					TraceProcResumed: ev.Proc, TraceProcEnded: "end", TraceCallback: "cb"}[ev.Kind], ev.At))
			})
			var seq uint64
			e.Go("p", func(p *Proc) {
				e.After(2*time.Microsecond, func() {})
				e.After(5*time.Microsecond, func() {})
				p.Sleep(tc.sleep)
				seq = e.seq
				if p.Now() != Time(tc.sleep) {
					t.Errorf("woke at %v, want %v", p.Now(), tc.sleep)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(steps, " "); got != tc.trace {
				t.Errorf("steps %q, want %q", got, tc.trace)
			}
			// Start, wake, two callbacks; the wake drew the fourth sequence
			// number and was the third event pending at once.
			want := EngineStats{EventsProcessed: 4, Resumes: tc.resumes, ProcsSpawned: 1, MaxEventQueue: 3}
			if st := e.Stats(); st != want || seq != 4 || e.Now() != 5*us {
				t.Errorf("%+v, seq %d at %v; want %+v, seq 4 at 5µs", st, seq, e.Now(), want)
			}
		})
	}

	// A wake past the run limit queues: the clock stops at the limit, and
	// the next run resumes the process at its instant.
	e := NewEnv(1)
	var woke Time = -1
	e.Go("p", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		woke = p.Now()
	})
	if err := e.RunUntil(3 * us); err != nil {
		t.Fatal(err)
	}
	if woke != -1 || e.Now() != 3*us {
		t.Fatalf("first run: woke %v, clock %v; want asleep at 3µs", woke, e.Now())
	}
	if err := e.RunUntil(10 * us); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); woke != 5*us || st.EventsProcessed != 2 || st.Resumes != 2 {
		t.Fatalf("second run: woke %v, %+v; want 5µs with 2 events and 2 resumes", woke, st)
	}

	// Shutdown unwinds a process whose Sleep, the queue empty and the
	// limit open, would otherwise have gone in place.
	e = NewEnv(1)
	unwound, slept := false, false
	e.GoDaemon("p", func(p *Proc) {
		defer func() {
			unwound = true
			p.Sleep(time.Microsecond)
			slept = true
		}()
		p.Park("forever")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	at := e.Now()
	e.Shutdown()
	if !unwound || slept || e.Now() != at {
		t.Fatalf("unwound %v, slept %v, clock %v → %v; want unwound, not slept, clock unmoved", unwound, slept, at, e.Now())
	}
}

func TestTracerObservesTimeline(t *testing.T) {
	e := NewEnv(1)
	var events []TraceEvent
	e.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
	e.Go("worker", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.After(2*time.Microsecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var resumed, ended, callbacks int
	lastAt := Time(-1)
	for _, ev := range events {
		if ev.At < lastAt {
			t.Fatalf("trace not time-ordered: %v", events)
		}
		lastAt = ev.At
		switch ev.Kind {
		case TraceProcResumed:
			resumed++
			if ev.Proc != "worker" {
				t.Fatalf("unexpected proc %q", ev.Proc)
			}
		case TraceProcEnded:
			ended++
		case TraceCallback:
			callbacks++
		}
	}
	if resumed < 2 || ended != 1 || callbacks != 1 {
		t.Fatalf("resumed=%d ended=%d callbacks=%d", resumed, ended, callbacks)
	}
	// The tracer only observes. The worker's second resume is its own
	// wakeup at the head of the queue, which it consumes without yielding:
	// that step is reported like one taken by the run loop, so the traced
	// steps are exactly the events an untraced run of the script counts.
	want := []TraceEvent{
		{TraceProcResumed, 0, "worker"},
		{TraceProcResumed, Time(time.Microsecond), "worker"},
		{TraceProcEnded, Time(time.Microsecond), "worker"},
		{TraceCallback, Time(2 * time.Microsecond), ""},
	}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", events, want)
	}
	// Disabling works.
	e2 := NewEnv(1)
	e2.SetTracer(nil)
	e2.Go("worker", func(p *Proc) { p.Sleep(time.Microsecond) })
	e2.After(2*time.Microsecond, func() {})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if e2.Stats() != e.Stats() || e2.Stats().EventsProcessed != uint64(resumed+callbacks) {
		t.Fatalf("untraced %+v, traced %+v with %d steps observed", e2.Stats(), e.Stats(), resumed+callbacks)
	}
}

// TestStaleWakeAccountingIgnoresTracer pins the one rule for a wake event
// whose process has already finished: it is popped, counted and advances
// the clock like any other event, tracer or not.
func TestStaleWakeAccountingIgnoresTracer(t *testing.T) {
	run := func(traced bool) (EngineStats, Time) {
		e := NewEnv(1)
		defer e.Shutdown()
		if traced {
			e.SetTracer(func(TraceEvent) {})
		}
		p := e.Go("p", func(p *Proc) { p.Park("first wake") })
		e.After(time.Microsecond, func() {
			e.WakeAfter(p, 0)
			e.WakeAfter(p, time.Microsecond) // p has returned by then
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Stats(), e.Now()
	}
	plain, plainNow := run(false)
	traced, tracedNow := run(true)
	if plain != traced || plainNow != tracedNow {
		t.Fatalf("untraced %+v at %v, traced %+v at %v", plain, plainNow, traced, tracedNow)
	}
	// start, callback, wake, stale wake; the stale one sets the end instant.
	if plain.EventsProcessed != 4 || plainNow != Time(2*time.Microsecond) {
		t.Fatalf("%+v at %v, want 4 events ending at 2µs", plain, plainNow)
	}
}

// TestContinueResumesInsideTheCallbackEvent: a process handed back by a
// callback runs at the callback's instant, ahead of every event already
// queued for that instant — where a blocking call woken by that event
// would have continued — while one woken with WakeAfter(p, 0) queues
// behind them.
// The hand-back is no event; tracer on or off, the counters and the
// clock are the same, and the tracer sees it as one resume.
func TestContinueResumesInsideTheCallbackEvent(t *testing.T) {
	run := func(traced bool) (order []string, st EngineStats, now Time, resumed int) {
		e := NewEnv(1)
		if traced {
			e.SetTracer(func(ev TraceEvent) {
				if ev.Kind == TraceProcResumed && ev.Proc == "handed" {
					resumed++
				}
			})
		}
		log := func(s string) func() { return func() { order = append(order, s) } }
		handed := e.Go("handed", func(p *Proc) {
			p.Park("until handed back")
			order = append(order, fmt.Sprintf("handed at %v", p.Now()))
			p.Sleep(time.Microsecond) // parks again through the usual path
			log("handed after sleep")()
		})
		woken := e.Go("woken", func(p *Proc) {
			p.Park("until woken")
			log("woken")()
		})
		e.After(5*time.Microsecond, func() {
			e.After(0, log("queued before the hand-back"))
			e.WakeAfter(woken, 0)
			e.Continue(handed)
			log("callback runs on")()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order, e.Stats(), e.Now(), resumed
	}
	order, st, now, _ := run(false)
	want := []string{"callback runs on", "handed at 5µs", "queued before the hand-back", "woken", "handed after sleep"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %q, want %q", order, want)
	}
	// Two starts, the callback, the After(0), woken's wake, handed's
	// sleep: the hand-back adds a resume and no event.
	if st.EventsProcessed != 6 || st.Resumes != 5 {
		t.Fatalf("%+v, want 6 events and 5 resumes", st)
	}
	tracedOrder, tracedSt, tracedNow, resumed := run(true)
	if fmt.Sprint(tracedOrder) != fmt.Sprint(order) || tracedSt != st || tracedNow != now {
		t.Fatalf("untraced %q %+v at %v, traced %q %+v at %v", order, st, now, tracedOrder, tracedSt, tracedNow)
	}
	// Start, hand-back, wake from the sleep.
	if resumed != 3 {
		t.Fatalf("tracer saw %d resumes of the handed-back process, want 3", resumed)
	}
}

// TestContinueMisusePanics: Continue outside a scheduler callback, or a
// second Continue in one callback, is a bug and says which process.
func TestContinueMisusePanics(t *testing.T) {
	panicOf := func(fn func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		fn()
		return ""
	}
	e := NewEnv(1)
	defer e.Shutdown()
	a := e.Go("alpha", func(p *Proc) { p.Park("forever") })
	b := e.Go("beta", func(p *Proc) { p.Park("forever") })
	if msg := panicOf(func() { e.Continue(a) }); !contains(msg, `"alpha"`) || !contains(msg, "outside a scheduler callback") {
		t.Fatalf("Continue outside Run: %q", msg)
	}
	var inProc, twice string
	e.Go("caller", func(*Proc) { inProc = panicOf(func() { e.Continue(a) }) })
	e.After(time.Microsecond, func() {
		e.Continue(a)
		twice = panicOf(func() { e.Continue(b) })
	})
	if err := e.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !contains(inProc, `"alpha"`) || !contains(inProc, "outside a scheduler callback") {
		t.Fatalf("Continue from a process: %q", inProc)
	}
	if !contains(twice, `"beta"`) || !contains(twice, `already continued "alpha"`) {
		t.Fatalf("second Continue in one callback: %q", twice)
	}
}

// TestAwaitContinuesOrReturnsInline: a chain that ends inside the call
// that started it leaves Wait nothing to do — no park, no resume, no
// Continue from the process — and one that ends in a callback hands the
// waiter back inside that callback's event, ahead of the events queued
// behind it for the same instant. One Await serves both, in any order.
func TestAwaitContinuesOrReturnsInline(t *testing.T) {
	e := NewEnv(1)
	var a Await
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	e.Go("waiter", func(p *Proc) {
		for round := 0; round < 2; round++ {
			before := e.Stats()
			a.Done() // the chain ended inline
			a.Wait(p, "inline chain")
			if st := e.Stats(); st != before || p.Now() != Time(round)*Time(time.Microsecond) {
				t.Errorf("round %d: an inline chain cost %+v → %+v, at %v", round, before, st, p.Now())
			}
			e.After(time.Microsecond, log("queued ahead"))
			e.After(time.Microsecond, a.Done)
			e.After(time.Microsecond, log("queued behind"))
			before = e.Stats()
			a.Wait(p, "deferred chain")
			order = append(order, fmt.Sprintf("handed back at %v", p.Now()))
			// The chain's event and those ahead of it (in round 1 also the
			// previous round's "queued behind"); one resume.
			if st := e.Stats(); st.EventsProcessed-before.EventsProcessed != uint64(2+round) || st.Resumes-before.Resumes != 1 {
				t.Errorf("round %d: a deferred chain cost %+v → %+v, want %d events and 1 resume", round, before, st, 2+round)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[queued ahead handed back at 1µs queued behind queued ahead handed back at 2µs queued behind]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %q, want %s", order, want)
	}
}

// TestShutdownAfterContinue: a handed-back process that parked again is
// an ordinary parked process to Shutdown.
func TestShutdownAfterContinue(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEnv(1)
	unwound := false
	p := e.Go("handed", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park("first")
		p.Park("second")
		t.Error("second Park returned")
	})
	e.After(time.Microsecond, func() { e.Continue(p) })
	if err := e.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !unwound {
		t.Fatal("the process was not unwound")
	}
	wantGoroutines(t, baseline)
}

// TestGoStartsChildInSameInstantFIFOOrder: a child spawned from a process
// or from a callback starts at the spawn instant, behind every event
// already queued for that instant and ahead of anything queued later.
func TestGoStartsChildInSameInstantFIFOOrder(t *testing.T) {
	e := NewEnv(1)
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	e.Go("parent", func(p *Proc) {
		e.After(0, log("queued before child"))
		e.Go("child", func(*Proc) { log("child")() })
		log("parent runs on")()
		p.Sleep(0) // queued after the child's start
		log("parent after yield")()
	})
	e.After(time.Microsecond, func() {
		e.After(0, log("queued before cb-child"))
		e.Go("cb-child", func(*Proc) { log("cb-child")() })
		e.After(0, log("queued after cb-child"))
		log("callback runs on")()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"parent runs on", "queued before child", "child", "parent after yield",
		"callback runs on", "queued before cb-child", "cb-child", "queued after cb-child",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %q, want %q", order, want)
	}
}

// wantGoroutines fails if more goroutines exist than at baseline. No
// settling time: Shutdown returns only after every process has ended.
func wantGoroutines(t *testing.T, baseline int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines left behind: baseline %d, now %d", baseline, n)
	}
}

// TestShutdownUnwindsEveryParkSite: Shutdown ends a process wherever it
// is — not yet started, or parked in any blocking primitive — running its
// deferred calls, and a deferred call that blocks again is unwound too
// instead of stranding the process.
func TestShutdownUnwindsEveryParkSite(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEnv(1)
	c := NewChan[int](e, "never", 0)
	r := NewResource(e, "held", 1)
	unwound := map[string]bool{}
	parkIn := func(name string, block func(p *Proc)) {
		e.Go(name, func(p *Proc) {
			defer func() { unwound[name] = true }()
			block(p)
			t.Errorf("%s: blocking call returned", name)
		})
	}
	parkIn("holder", func(p *Proc) { r.Acquire(p, 1); p.Park("holding") })
	parkIn("recv", func(p *Proc) { c.Recv(p) })
	parkIn("acquire", func(p *Proc) { r.Acquire(p, 1) })
	parkIn("park", func(p *Proc) { p.Park("forever") })
	parkIn("reblock", func(p *Proc) {
		defer func() {
			p.Sleep(time.Microsecond) // blocks again while unwinding
			t.Error("reblock: Sleep returned during Shutdown")
		}()
		p.Park("forever")
	})
	// Run to the deadlock, which leaves the limit open: only Shutdown
	// itself stops reblock's Sleep from consuming its own wakeup.
	var d *DeadlockError
	if err := e.Run(); !errors.As(err, &d) || len(d.Parked) != 5 {
		t.Fatalf("err = %v, want all five parked", err)
	}
	e.Shutdown()
	if len(unwound) != 5 {
		t.Fatalf("unwound %v, want all five", unwound)
	}
	e2 := NewEnv(1)
	e2.Go("never-started", func(*Proc) { t.Error("never-started: body ran") })
	e2.Shutdown()
	wantGoroutines(t, baseline)
}

// TestPanicLeavesEnvShutDownAble: a panicking process surfaces as Run's
// error, named, and the processes it leaves parked can still be shut
// down.
func TestPanicLeavesEnvShutDownAble(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEnv(1)
	c := NewChan[int](e, "never", 0)
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("waiter%d", i), func(p *Proc) { c.Recv(p) })
	}
	e.Go("bomb", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("boom")
	})
	err := e.Run()
	if err == nil || !contains(err.Error(), `"bomb"`) || !contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the panic of process bomb", err)
	}
	if live := e.Stats().ProcsLive; live != 3 {
		t.Fatalf("ProcsLive = %d after the panic, want the 3 waiters", live)
	}
	e.Shutdown()
	wantGoroutines(t, baseline)
}

func TestShutdownLeaksNoGoroutines(t *testing.T) {
	// Create many environments with parked processes; after Shutdown the
	// goroutine count must return to (near) baseline.
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		e := NewEnv(int64(round))
		c := NewChan[int](e, "never", 0)
		for i := 0; i < 20; i++ {
			e.GoDaemon(fmt.Sprintf("d%d", i), func(p *Proc) { c.Recv(p) })
		}
		if err := e.RunUntil(Time(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
	}
	// Give the runtime a beat to reap exiting goroutines.
	for i := 0; i < 50; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+5 {
			return
		}
		realSleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// realSleep is wall-clock sleep (tests only; the engine itself never
// touches real time).
func realSleep(d time.Duration) { <-time.After(d) }
