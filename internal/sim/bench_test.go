package sim

import (
	"testing"
	"time"
)

// The engine's hot paths — timer-callback scheduling, channel ping-pong
// and contended resource hand-off — are designed to be allocation-free
// in the steady state: events are heap values, waiter records recycle
// through free lists and block reasons are preformatted. The benchmarks
// report allocs/op and TestSteadyStateAllocationFree asserts the same
// numerically, so a regression that reintroduces per-event allocation
// fails the suite rather than just a benchmark eyeball.

// BenchmarkTimerCallback measures scheduling and dispatching one inline
// timer callback through the central loop (no process involved).
func BenchmarkTimerCallback(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv(1)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			env.After(time.Microsecond, tick)
		}
	}
	env.After(time.Microsecond, tick)
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChanPingPong measures one request/response round trip between
// two processes over unbuffered channels (four park/resume hand-offs per
// iteration).
func BenchmarkChanPingPong(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv(1)
	req := NewChan[int](env, "req", 0)
	rsp := NewChan[int](env, "rsp", 0)
	env.GoDaemon("echo", func(p *Proc) {
		for {
			v, ok := req.Recv(p)
			if !ok {
				return
			}
			rsp.Send(p, v)
		}
	})
	env.Go("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			req.Send(p, i)
			rsp.Recv(p)
			p.Sleep(time.Microsecond)
		}
		req.Close()
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	env.Shutdown()
}

// benchmarkEngineDeep measures scheduler throughput with a deep pending
// population: `pending` self-rescheduling timer callbacks whose firing
// times are spread pseudo-uniformly over a window of `pending`
// microseconds, so the event queue holds ~`pending` events at every
// instant of the run. No workload is within two orders of magnitude of
// this regime (the deepest queue measured is 98 events; an 8192-node
// E18 cell holds 64): the synthetic drive exists so that DESIGN.md's
// criterion for a tiered queue — a workload that does get here — has
// numbers to be judged against. The benchmark reports an exact events/s
// metric from the engine's own processed-event counter, so the number is
// comparable across queue implementations regardless of b.N.
func benchmarkEngineDeep(b *testing.B, pending int) {
	b.ReportAllocs()
	env := NewEnv(1)
	// Deterministic xorshift64 spread; no rand.Rand allocation per event.
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() time.Duration {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return time.Duration(1 + rng%(uint64(pending)*1000))
	}
	scheduled := 0
	var tick func()
	tick = func() {
		if scheduled < b.N {
			scheduled++
			env.After(next(), tick)
		}
	}
	for i := 0; i < pending; i++ {
		scheduled++
		env.After(next(), tick)
	}
	b.ResetTimer()
	start := time.Now()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(env.Stats().EventsProcessed)/elapsed.Seconds(), "events/s")
	}
}

func BenchmarkEngineDeepQueue10k(b *testing.B)  { benchmarkEngineDeep(b, 10_000) }
func BenchmarkEngineDeepQueue100k(b *testing.B) { benchmarkEngineDeep(b, 100_000) }
func BenchmarkEngineDeepQueue1M(b *testing.B)   { benchmarkEngineDeep(b, 1_000_000) }

// BenchmarkEngineDriverQueue measures the regime every workload runs:
// 64 closed-loop timer chains (an E18 cell's driver count), each
// re-arming after a delay drawn from a handful of constants, so the queue
// stays 64 events deep and which sibling is smallest changes from pop to
// pop. BenchmarkTimerCallback's one chain and the deep drives' 10^4–10^6
// pending events both miss it: the first is perfectly predicted, the
// second is bound by cache misses, not by compares.
func BenchmarkEngineDriverQueue(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv(1)
	delays := [...]time.Duration{0, 8, 300, 1000, 1700, 2500, 3100, 12_000}
	rng := uint64(0x9E3779B97F4A7C15)
	scheduled := 0
	var tick func()
	tick = func() {
		if scheduled < b.N {
			scheduled++
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			env.After(delays[rng%uint64(len(delays))], tick)
		}
	}
	for i := 0; i < 64; i++ {
		scheduled++
		env.After(delays[i%len(delays)], tick)
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContended measures a unit-capacity resource bouncing
// between two hold chains: every hold after the first queues, so each
// iteration exercises the waiter queue, the record pool, the dispatch
// event and the end-of-hold event.
func BenchmarkResourceContended(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv(1)
	res := NewResource(env, "cpu", 1)
	holdChains(res, 2)
	b.ResetTimer()
	if err := env.RunUntil(Time(b.N) * Time(time.Microsecond)); err != nil {
		b.Fatal(err)
	}
}

// TestSteadyStateAllocationFree pins the allocation behaviour the
// benchmarks report: once queues and free lists are warm, scheduling
// work through the engine mallocs (approximately) nothing.
func TestSteadyStateAllocationFree(t *testing.T) {
	t.Run("timer", func(t *testing.T) {
		env := NewEnv(1)
		fired := 0
		fn := func() { fired++ }
		for i := 0; i < 64; i++ {
			env.After(time.Microsecond, fn)
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			env.After(time.Microsecond, fn)
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("timer scheduling allocates %.1f allocs/op, want 0", allocs)
		}
	})

	t.Run("chan-ping-pong", func(t *testing.T) {
		env := NewEnv(1)
		req := NewChan[int](env, "req", 0)
		rsp := NewChan[int](env, "rsp", 0)
		env.GoDaemon("echo", func(p *Proc) {
			for {
				v, _ := req.Recv(p)
				rsp.Send(p, v)
			}
		})
		env.GoDaemon("driver", func(p *Proc) {
			for {
				req.Send(p, 1)
				rsp.Recv(p)
				p.Sleep(time.Microsecond)
			}
		})
		limit := Time(0)
		step := func() {
			limit = limit.Add(100 * time.Microsecond)
			if err := env.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm the waiter free lists and queue storage
		allocs := testing.AllocsPerRun(20, step)
		// ~100 round trips per run; allow a little runtime noise
		// (goroutine park/unpark bookkeeping) but catch any per-op
		// allocation, which would show up as >=100.
		if allocs > 2 {
			t.Errorf("chan ping-pong allocates %.1f allocs per 100 round trips, want ~0", allocs)
		}
		env.Shutdown()
	})

	t.Run("resource-contended", func(t *testing.T) {
		env := NewEnv(1)
		res := NewResource(env, "cpu", 1)
		for w := 0; w < 2; w++ {
			env.GoDaemon("worker", func(p *Proc) {
				for {
					res.Use(p, 1, time.Microsecond)
				}
			})
		}
		limit := Time(0)
		step := func() {
			limit = limit.Add(100 * time.Microsecond)
			if err := env.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
		}
		step()
		allocs := testing.AllocsPerRun(20, step)
		if allocs > 2 {
			t.Errorf("contended resource allocates %.1f allocs per 100 hand-offs, want ~0", allocs)
		}
		env.Shutdown()
	})

	t.Run("hand-back", func(t *testing.T) {
		env := NewEnv(1)
		var parked *Proc
		handBack := func() { env.Continue(parked) }
		parked = env.GoDaemon("chained", func(p *Proc) {
			for {
				env.After(time.Microsecond, handBack)
				p.Park("until handed back")
			}
		})
		limit := Time(0)
		step := func() {
			limit = limit.Add(100 * time.Microsecond)
			if err := env.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if allocs := testing.AllocsPerRun(20, step); allocs > 0 {
			t.Errorf("hand-back allocates %.1f allocs per 100 hand-backs, want 0", allocs)
		}
		env.Shutdown()
	})
}
