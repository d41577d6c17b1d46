package serve

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ngdc/internal/metrics"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
)

// startLive spins up a live server on loopback TCP and returns its
// runtime and address.
func startLive(t testing.TB, opts Options) (*runtime.RealRuntime, string) {
	t.Helper()
	rt := runtime.NewReal()
	t.Cleanup(rt.Shutdown)
	srv := New(rt, opts)
	ln, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	return rt, ln.Addr()
}

// TestLiveBasicOps runs the client surface end to end against a live
// server: echo, put/get round trips, overwrite, missing key, blocking
// and non-blocking locks, and the protocol error paths.
func TestLiveBasicOps(t *testing.T) {
	rt, addr := startLive(t, Options{Locks: 4})
	rt.Go("client", func(tk runtime.Task) {
		cl, err := Dial(rt, addr)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer cl.Close()

		if got, err := cl.Echo(tk, []byte("ping")); err != nil || !bytes.Equal(got, []byte("ping")) {
			t.Errorf("Echo = %q, %v", got, err)
		}
		if _, ok, err := cl.Get(tk, "missing"); ok || err != nil {
			t.Errorf("Get(missing) = ok=%v err=%v", ok, err)
		}
		if err := cl.Put(tk, "k", []byte("v1")); err != nil {
			t.Errorf("Put: %v", err)
		}
		if v, ok, err := cl.Get(tk, "k"); err != nil || !ok || !bytes.Equal(v, []byte("v1")) {
			t.Errorf("Get(k) = %q ok=%v err=%v", v, ok, err)
		}
		if err := cl.Put(tk, "k", []byte("longer-value-2")); err != nil {
			t.Errorf("overwrite: %v", err)
		}
		if err := cl.Put(tk, "k", []byte("v3")); err != nil {
			t.Errorf("shrink: %v", err)
		}
		if v, _, _ := cl.Get(tk, "k"); !bytes.Equal(v, []byte("v3")) {
			t.Errorf("Get after shrink = %q, want v3 (stale tail leaked)", v)
		}

		if err := cl.Lock(tk, 0, true); err != nil {
			t.Errorf("Lock: %v", err)
		}
		if err := cl.Lock(tk, 0, true); err == nil {
			t.Error("double Lock on one connection succeeded")
		}
		if err := cl.Unlock(tk, 0, false); err == nil {
			t.Error("Unlock in the wrong mode succeeded")
		}
		if err := cl.Unlock(tk, 0, true); err != nil {
			t.Errorf("Unlock: %v", err)
		}
		if err := cl.Unlock(tk, 0, true); err == nil {
			t.Error("Unlock of a released lock succeeded")
		}
		if ok, err := cl.TryLock(tk, 1, false); !ok || err != nil {
			t.Errorf("TryLock shared = %v, %v", ok, err)
		}
		if err := cl.Lock(tk, 99, false); err == nil {
			t.Error("Lock outside the namespace succeeded")
		}
		if err := cl.Put(tk, "big", bytes.Repeat([]byte{1}, MaxValue+1)); err == nil {
			t.Error("Put above MaxValue succeeded")
		}
		if err := cl.Put(tk, "", []byte("v")); err == nil {
			t.Error("Put with empty key succeeded")
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveLockContention checks cross-connection exclusion: while one
// connection holds an exclusive lock, another connection's TryLock
// fails, a shared holder blocks an exclusive TryLock, and disconnect
// releases abandoned locks.
func TestLiveLockContention(t *testing.T) {
	rt, addr := startLive(t, Options{Locks: 4})
	hold := make(chan struct{})
	held := make(chan struct{})
	rt.Go("holder", func(tk runtime.Task) {
		cl, err := Dial(rt, addr)
		if err != nil {
			t.Errorf("dial: %v", err)
			close(held)
			return
		}
		if err := cl.Lock(tk, 2, true); err != nil {
			t.Errorf("holder lock: %v", err)
		}
		close(held)
		<-hold
		cl.Close() // abandon while holding: server must release lock 2
	})
	rt.Go("prober", func(tk runtime.Task) {
		<-held
		cl, err := Dial(rt, addr)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer cl.Close()
		if ok, _ := cl.TryLock(tk, 2, true); ok {
			t.Error("TryLock succeeded while peer held the lock exclusively")
		}
		if ok, _ := cl.TryLock(tk, 2, false); ok {
			t.Error("shared TryLock succeeded under an exclusive holder")
		}
		close(hold)
		// After the holder disconnects the lock must come free; Lock
		// blocks until the server's disconnect cleanup runs.
		if err := cl.Lock(tk, 2, true); err != nil {
			t.Errorf("lock after peer disconnect: %v", err)
		}
		if err := cl.Unlock(tk, 2, true); err != nil {
			t.Errorf("unlock: %v", err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveConcurrentClients drives the acceptance-bar load: at least
// 100 concurrent connections of mixed traffic against one live server,
// with zero request errors. Run under -race in CI.
func TestLiveConcurrentClients(t *testing.T) {
	clients := 100
	dur := 500 * time.Millisecond
	if testing.Short() {
		clients, dur = 25, 200*time.Millisecond
	}
	rt, addr := startLive(t, Options{})
	stats, err := RunLoad(rt, addr, clients, 1, dur)
	if err != nil {
		t.Fatalf("load: %v (after %d ops, %d errors)", err, stats.Ops, stats.Errors)
	}
	if stats.Errors != 0 {
		t.Fatalf("%d request errors across %d ops", stats.Errors, stats.Ops)
	}
	if stats.Ops == 0 {
		t.Fatal("load run completed zero operations")
	}
	t.Logf("%d clients: %d ops in %s (%.0f req/s)", stats.Clients, stats.Ops, stats.Elapsed, stats.OpsPerSec())
}

// TestLoadLatencyNearestRank checks the percentiles RunLoad reports: of
// four latencies the p99 is the largest, and each comes back to the
// nanosecond it was recorded at.
func TestLoadLatencyNearestRank(t *testing.T) {
	var s metrics.Sample
	for _, d := range []time.Duration{17283, 1000, 39075, 1001} {
		s.AddDuration(d)
	}
	if got := latency(&s, 50); got != 1001 {
		t.Errorf("p50 = %v, want 1.001µs", got)
	}
	if got := latency(&s, 99); got != 39075 {
		t.Errorf("p99 = %v, want the largest, 39.075µs", got)
	}
	if got := latency(&s, 75); got != 17283 {
		t.Errorf("p75 = %v, want 17.283µs", got)
	}
}

// TestSimServerDeterminism hosts the server on the simulator twice with
// the same seed and script and requires identical results and identical
// virtual finish times.
func TestSimServerDeterminism(t *testing.T) {
	run := func() (string, time.Duration) {
		env := sim.NewEnv(3)
		defer env.Shutdown()
		rt := runtime.NewSim(env)
		srv := New(rt, Options{Locks: 8, Nodes: 2})
		ln, err := rt.Listen("ngdc")
		if err != nil {
			t.Fatal(err)
		}
		srv.Serve(ln)
		var out string
		for c := 0; c < 3; c++ {
			id := c
			rt.Go(fmt.Sprintf("client-%d", id), func(tk runtime.Task) {
				cl, err := Dial(rt, "ngdc")
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				defer cl.Close()
				key := fmt.Sprintf("key-%d", id)
				for i := 0; i < 5; i++ {
					if err := cl.Lock(tk, id%2, i%2 == 0); err != nil {
						t.Errorf("lock: %v", err)
						return
					}
					val := []byte(fmt.Sprintf("%d#%d", id, i))
					if err := cl.Put(tk, key, val); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					got, ok, err := cl.Get(tk, key)
					if err != nil || !ok || !bytes.Equal(got, val) {
						t.Errorf("get = %q ok=%v err=%v", got, ok, err)
						return
					}
					if err := cl.Unlock(tk, id%2, i%2 == 0); err != nil {
						t.Errorf("unlock: %v", err)
						return
					}
					out += fmt.Sprintf("%d:%s@%s\n", id, got, tk.Now())
				}
			})
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return out, env.Now().Duration()
	}
	o1, t1 := run()
	o2, t2 := run()
	if o1 != o2 || t1 != t2 {
		t.Fatalf("sim server runs diverge:\n%s (%s)\nvs\n%s (%s)", o1, t1, o2, t2)
	}
	if t1 == 0 {
		t.Fatal("virtual time did not advance — server ops cost nothing")
	}
}
