package serve

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"ngdc/internal/runtime"
	"ngdc/internal/sim"
)

// startSim hosts a server on a fresh simulation at address "ngdc". Its
// connections are served on their senders' tasks (frameServer).
func startSim(t testing.TB, seed int64, opts Options) (*sim.Env, *runtime.SimRuntime) {
	t.Helper()
	env := sim.NewEnv(seed)
	t.Cleanup(env.Shutdown)
	rt := runtime.NewSim(env)
	ln, err := rt.Listen("ngdc")
	if err != nil {
		t.Fatal(err)
	}
	New(rt, opts).Serve(ln)
	return env, rt
}

// TestSimCloseReleasesHeldLocks: Close takes no task, so a connection
// that ends holding locks gets one daemon, started at that instant, to
// release them in sorted order; one that holds none schedules nothing.
// A second session blocked on the first's locks acquires both, at
// instants that repeat.
func TestSimCloseReleasesHeldLocks(t *testing.T) {
	run := func() string {
		env, rt := startSim(t, 9, Options{Locks: 4, Nodes: 2})
		var out string
		note := func(tk runtime.Task, what string) { out += fmt.Sprintf("%s@%d\n", what, tk.Now()) }
		spawnedBy := func(close func() error) uint64 {
			before := env.Stats().ProcsSpawned
			if err := close(); err != nil {
				t.Errorf("close: %v", err)
			}
			return env.Stats().ProcsSpawned - before
		}
		rt.Go("holder", func(tk runtime.Task) {
			cl, err := Dial(rt, "ngdc")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			if err := cl.Lock(tk, 2, false); err != nil {
				t.Errorf("holder shared lock: %v", err)
			}
			if err := cl.Lock(tk, 1, true); err != nil {
				t.Errorf("holder exclusive lock: %v", err)
			}
			tk.Sleep(200 * time.Microsecond)
			note(tk, "holder closes")
			if n := spawnedBy(cl.Close); n != 1 {
				t.Errorf("Close holding two locks started %d processes, want the one that releases them", n)
			}
			if spawnedBy(cl.Close) != 0 {
				t.Error("second Close started a process")
			}
		})
		rt.Go("waiter", func(tk runtime.Task) {
			cl, err := Dial(rt, "ngdc")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			tk.Sleep(50 * time.Microsecond)
			if ok, err := cl.TryLock(tk, 1, true); ok || err != nil {
				t.Errorf("TryLock under the holder = %v, %v", ok, err)
			}
			note(tk, "waiter asks")
			if err := cl.Lock(tk, 1, true); err != nil {
				t.Errorf("lock 1 after the holder closed: %v", err)
			}
			note(tk, "waiter has 1")
			if tk.Now() < 200*time.Microsecond {
				t.Errorf("exclusive lock granted at %s, while the holder still held it", tk.Now())
			}
			if err := cl.Lock(tk, 2, true); err != nil {
				t.Errorf("lock 2 after the holder closed: %v", err)
			}
			note(tk, "waiter has 2")
			for _, lock := range []int{1, 2} {
				if err := cl.Unlock(tk, lock, true); err != nil {
					t.Errorf("unlock %d: %v", lock, err)
				}
			}
			if n := spawnedBy(cl.Close); n != 0 {
				t.Errorf("Close holding nothing started %d processes", n)
			}
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return out + fmt.Sprintf("end@%d", env.Now())
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("two runs diverge:\n%s\nvs\n%s", first, second)
	}
	t.Log("\n" + first)
}

// TestSimServerHangUp: a frame that is not a request — too short, or
// longer than any request — is answered StatusErr, and the reply is
// delivered before Recv reports io.EOF. The connection is over: a
// further Send fails, and a lock it held comes free.
func TestSimServerHangUp(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"malformed", []byte{byte(OpPut), 0, 0}, "short request frame"},
		{"oversized", make([]byte, maxRequestFrame+1), "exceeds limit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, rt := startSim(t, 1, Options{Locks: 4, Nodes: 2})
			rt.Go("client", func(tk runtime.Task) {
				conn, err := rt.Dial("ngdc")
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				for _, frame := range [][]byte{mustRequest(t, Request{Op: OpLock, Lock: 3, Excl: true}), tc.frame} {
					if err := conn.Send(tk, frame); err != nil {
						t.Errorf("send: %v", err)
					}
				}
				if frame, err := conn.Recv(tk); err != nil || frame[0] != byte(StatusOK) {
					t.Errorf("lock reply = %q, %v", frame, err)
				}
				frame, err := conn.Recv(tk)
				if err != nil {
					t.Errorf("no reply to the %s frame: %v", tc.name, err)
					return
				}
				if st, msg, _ := DecodeResponse(frame); st != StatusErr || !bytes.Contains(msg, []byte(tc.want)) {
					t.Errorf("reply = status %d %q, want StatusErr containing %q", st, msg, tc.want)
				}
				if _, err := conn.Recv(tk); err != io.EOF {
					t.Errorf("Recv after the error reply = %v, want io.EOF", err)
				}
				if err := conn.Send(tk, mustRequest(t, Request{Op: OpEcho})); err != io.ErrClosedPipe {
					t.Errorf("Send after the server hung up = %v, want io.ErrClosedPipe", err)
				}
				other, err := Dial(rt, "ngdc")
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				defer other.Close()
				if err := other.Lock(tk, 3, true); err != nil {
					t.Errorf("lock abandoned by the hung-up connection: %v", err)
				}
			})
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSimSteadyStateAllocations is TestLiveSteadyStateAllocations for
// the served simulation: per request, the reply frame Recv hands its
// caller, and per round the two Key strings. The request frame is not
// copied — it is executed inside Send — and the framework's own put,
// get, lock and unlock allocate nothing once warm.
func TestSimSteadyStateAllocations(t *testing.T) {
	env, rt := startSim(t, 1, Options{})
	round := sim.NewChan[struct{}](env, "round", 0)
	val := bytes.Repeat([]byte{9}, 64)
	rt.GoDaemon("session", func(tk runtime.Task) {
		cl, err := Dial(rt, "ngdc")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			round.Recv(tk.SimProc())
			got, err := cl.Echo(tk, val)
			if err == nil {
				err = cl.Put(tk, "steady", val)
			}
			if err == nil {
				got, _, err = cl.Get(tk, "steady")
			}
			if err == nil {
				err = cl.Lock(tk, 1, true)
			}
			if err == nil {
				err = cl.Unlock(tk, 1, true)
			}
			if err != nil || !bytes.Equal(got, val) {
				t.Errorf("round: read back %q, %v", got, err)
			}
		}
	})
	step := func() {
		round.PostSend(struct{}{})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	step() // the first put allocates the segment; buffers and the held-lock map reach their size
	const requests = 5
	perRequest := testing.AllocsPerRun(200, step) / requests
	t.Logf("%.2f allocations per request", perRequest)
	if perRequest > 1.5 {
		t.Errorf("a steady-state request allocates %.2f, want at most 1.5 (its reply, and 2 Key strings in 5 requests)", perRequest)
	}
}
