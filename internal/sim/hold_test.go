package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

const us = time.Microsecond

// TestHoldQueuesInArrivalOrderWithProcesses: a process waiter, a hold and
// a second process waiter that queue at one instant are granted in that
// order; the hold's granted runs at its grant instant and its done d
// later, ahead of the waiter its release woke.
func TestHoldQueuesInArrivalOrderWithProcesses(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "r", 1)
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%v", what, e.Now())) }
	acquirer := func(name string) func(*Proc) {
		return func(p *Proc) {
			p.Sleep(us)
			r.Acquire(p, 1)
			note(name)
			p.Sleep(us)
			r.Release(1)
		}
	}
	e.Go("first", func(p *Proc) { r.Use(p, 1, 10*us) })
	// Started in this order, the three reach the resource at 1µs in this
	// order: each start event schedules its 1µs event in turn.
	e.Go("a", acquirer("a"))
	e.Go("hold", func(*Proc) {
		e.After(us, func() {
			r.HoldAsync(1, 2*us, func() { note("granted") }, func() { note("done") })
			if r.q.Len() != 2 {
				t.Errorf("Queued = %d when the hold joined, want 2 (a and the hold)", r.q.Len())
			}
		})
	})
	e.Go("b", acquirer("b"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@10µs", "granted@11µs", "done@13µs", "b@13µs"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("grants %v, want %v", log, want)
	}
}

// TestHoldUncontended: a hold of free units is granted inside the call,
// costs one event, and has released its units when done runs.
func TestHoldUncontended(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "r", 2)
	var held, observed []time.Duration
	r.OnHold(func(d, waited time.Duration) { held = append(held, d); observed = append(observed, waited) })
	grantedAt, doneAt := Time(-1), Time(-1)
	e.At(Time(5*us), func() {
		r.HoldAsync(2, 3*us, func() {
			grantedAt = e.Now()
			if r.InUse() != 2 {
				t.Errorf("InUse = %d inside granted, want 2", r.InUse())
			}
		}, func() {
			doneAt = e.Now()
			if r.InUse() != 0 {
				t.Errorf("InUse = %d inside done, want the units released", r.InUse())
			}
		})
		if grantedAt != Time(5*us) {
			t.Errorf("granted had not run when HoldAsync returned")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != Time(8*us) {
		t.Fatalf("done at %v, want 8µs", doneAt)
	}
	if ev := e.Stats().EventsProcessed; ev != 2 {
		t.Fatalf("%d events, want 2: the timer that asked and the end of the hold", ev)
	}
	if !reflect.DeepEqual(held, []time.Duration{3 * us}) || !reflect.DeepEqual(observed, []time.Duration{0}) {
		t.Fatalf("OnHold saw holds %v waits %v, want one 3µs hold that did not wait", held, observed)
	}
}

// TestHoldSeveralGrantedByOneRelease: with capacity to spare, one Release
// grants every queued hold that fits, at that instant, and OnHold sees
// how long each waited — the process-side Use included.
func TestHoldSeveralGrantedByOneRelease(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "r", 2)
	var waits []time.Duration
	r.OnHold(func(_, waited time.Duration) { waits = append(waits, waited) })
	var granted, done []Time
	e.Go("all", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(4 * us)
		r.Release(2)
	})
	e.At(Time(us), func() {
		for i := 0; i < 2; i++ {
			r.HoldAsync(1, 3*us, func() { granted = append(granted, e.Now()) }, func() { done = append(done, e.Now()) })
		}
	})
	var usedUntil Time
	e.Go("user", func(p *Proc) {
		p.Sleep(2 * us)
		r.Use(p, 2, us)
		usedUntil = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	at := func(d time.Duration) []Time { return []Time{Time(d), Time(d)} }
	if !reflect.DeepEqual(granted, at(4*us)) || !reflect.DeepEqual(done, at(7*us)) {
		t.Fatalf("granted %v done %v, want both at 4µs and both at 7µs", granted, done)
	}
	if usedUntil != Time(8*us) {
		t.Fatalf("Use returned at %v, want 8µs (queued behind both holds)", usedUntil)
	}
	if want := []time.Duration{3 * us, 3 * us, 5 * us}; !reflect.DeepEqual(waits, want) {
		t.Fatalf("OnHold saw waits %v, want %v", waits, want)
	}
}

// TestHoldOnRelease: the release observer sees every Release — a
// hold's end, a Use's and a hand Release after Acquire — at its instant,
// with the units returned and no queued request granted yet, ahead of
// the hold's done; and it costs no event.
func TestHoldOnRelease(t *testing.T) {
	run := func(observe bool) ([]string, uint64) {
		e := NewEnv(1)
		r := NewResource(e, "r", 1)
		var log []string
		note := func(what string) { log = append(log, fmt.Sprintf("%s@%v", what, e.Now())) }
		if observe {
			r.OnRelease(func() { note(fmt.Sprintf("release/%d", r.InUse())) })
		}
		e.At(0, func() { r.HoldAsync(1, 3*us, nil, func() { note("done") }) })
		e.Go("use", func(p *Proc) {
			r.Use(p, 1, 2*us)
			note("used")
		})
		e.Go("acquire", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(us)
			r.Release(1)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log, e.Stats().EventsProcessed
	}
	log, events := run(true)
	want := []string{"release/0@3µs", "done@3µs", "release/0@5µs", "used@5µs", "release/0@6µs"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	if _, unobserved := run(false); events != unobserved {
		t.Fatalf("%d events with the observer, %d without", events, unobserved)
	}
}

func TestHoldBadCountPanics(t *testing.T) {
	r := NewResource(NewEnv(1), "r", 2)
	for _, n := range []int{0, -1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HoldAsync(%d) on a capacity-2 resource did not panic", n)
				}
			}()
			r.HoldAsync(n, us, nil, func() {})
		}()
	}
	if r.InUse() != 0 || r.q.Len() != 0 {
		t.Fatalf("a refused hold left InUse %d Queued %d", r.InUse(), r.q.Len())
	}
}

// TestHoldPendingAtShutdown: holds queued and in progress when the
// environment is shut down own no goroutine and never complete.
func TestHoldPendingAtShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEnv(1)
	r := NewResource(e, "r", 1)
	never := func() { t.Error("a hold completed after Shutdown") }
	r.HoldAsync(1, time.Second, nil, never) // in progress
	r.HoldAsync(1, us, nil, never)          // queued
	e.GoDaemon("user", func(p *Proc) { r.Use(p, 1, us) })
	if err := e.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if r.InUse() != 1 || r.q.Len() != 2 {
		t.Fatalf("InUse %d Queued %d before Shutdown, want 1 and 2", r.InUse(), r.q.Len())
	}
	e.Shutdown()
	wantGoroutines(t, baseline)
}

// holdChains keeps n chains going on r, each starting its next 1µs hold
// from the done of its last: with more chains than capacity every hold
// but the first queues.
func holdChains(r *Resource, n int) {
	for i := 0; i < n; i++ {
		var next func()
		next = func() { r.HoldAsync(1, us, nil, next) }
		next()
	}
}

// TestHoldContendedCycleAllocatesNothing: queue, dispatch, end and
// re-issue of a hold allocate nothing once the records are warm.
func TestHoldContendedCycleAllocatesNothing(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "r", 1)
	holdChains(r, 3)
	limit := Time(0)
	step := func() {
		limit = limit.Add(100 * us)
		if err := e.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("%.1f allocations per 100 contended holds, want 0", allocs)
	}
	if r.q.Len() != 2 {
		t.Fatalf("Queued = %d, want 2 of the 3 chains waiting", r.q.Len())
	}
}
