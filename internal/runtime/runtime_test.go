package runtime

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ngdc/internal/sim"
)

// deadline is the generous bound used for every real-clock wait: smoke
// tests assert ordering and delivery, never tight timing.
const deadline = 30 * time.Second

// TestRealRuntimeTasks checks the live runtime's basic contract: Go
// tasks run and Run waits for them, daemons do not hold Run open, and
// the clock moves forward.
func TestRealRuntimeTasks(t *testing.T) {
	rt := NewReal()
	defer rt.Shutdown()
	if rt.SimEnv() != nil {
		t.Fatalf("SimEnv=%v, want nil", rt.SimEnv())
	}
	var ran atomic.Int64
	daemonGate := make(chan struct{})
	rt.GoDaemon("lingering-daemon", func(tk Task) { <-daemonGate })
	for i := 0; i < 8; i++ {
		rt.Go("worker", func(tk Task) {
			before := tk.Now()
			tk.Sleep(2 * time.Millisecond)
			if tk.Now() <= before {
				t.Error("Now did not advance across Sleep")
			}
			ran.Add(1)
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("%d tasks ran, want 8", ran.Load())
	}
	close(daemonGate)
}

// transportRoundTrips drives a listener/dialer pair through framed
// round trips on any runtime, failing the test on mismatch.
func transportRoundTrips(t *testing.T, rt Runtime, addr string) {
	t.Helper()
	ln, err := rt.Listen(addr)
	if err != nil {
		t.Fatalf("Listen(%q): %v", addr, err)
	}
	rt.GoDaemon("echo-server", func(tk Task) {
		conn, err := ln.Accept(tk)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			frame, err := conn.Recv(tk)
			if err != nil {
				return
			}
			if err := conn.Send(tk, frame); err != nil {
				return
			}
		}
	})
	rt.Go("client", func(tk Task) {
		conn, err := rt.Dial(ln.Addr())
		if err != nil {
			t.Errorf("Dial(%q): %v", ln.Addr(), err)
			return
		}
		// Frames of several sizes, including empty, reusing one buffer to
		// check Send copies (or finishes with) the caller's bytes.
		for _, n := range []int{0, 1, 7, 1024, 64 << 10} {
			frame := bytes.Repeat([]byte{byte(n)}, n)
			if err := conn.Send(tk, frame); err != nil {
				t.Errorf("Send(%d bytes): %v", n, err)
				return
			}
			back, err := conn.Recv(tk)
			if err != nil || !bytes.Equal(back, frame) {
				t.Errorf("Recv(%d bytes): err=%v, match=%v", n, err, bytes.Equal(back, frame))
				return
			}
		}
		conn.Close()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	ln.Close()
}

// TestRealTransportTCP round-trips frames over loopback TCP.
func TestRealTransportTCP(t *testing.T) {
	rt := NewReal()
	defer rt.Shutdown()
	transportRoundTrips(t, rt, "127.0.0.1:0")
}

// TestRealTransportUnix round-trips frames over a Unix-domain socket.
func TestRealTransportUnix(t *testing.T) {
	rt := NewReal()
	defer rt.Shutdown()
	sock := filepath.Join(t.TempDir(), "rt.sock")
	transportRoundTrips(t, rt, "unix:"+sock)
	if !strings.HasPrefix("unix:"+sock, "unix:") {
		t.Fatal("unreachable")
	}
}

// TestRealConnEOF checks that closing one endpoint surfaces io.EOF (not
// a transport-specific error) at the peer.
func TestRealConnEOF(t *testing.T) {
	rt := NewReal()
	defer rt.Shutdown()
	ln, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rt.GoDaemon("closer", func(tk Task) {
		conn, err := ln.Accept(tk)
		if err != nil {
			return
		}
		conn.Close()
	})
	rt.Go("client", func(tk Task) {
		conn, err := rt.Dial(ln.Addr())
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if _, err := conn.Recv(tk); err != io.EOF {
			t.Errorf("Recv after peer close = %v, want io.EOF", err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSimRuntimeMirror runs the same task/transport shapes on the
// simulator, pinning the two implementations to one behavioural
// contract — and checks sim determinism on top.
func TestSimRuntimeMirror(t *testing.T) {
	run := func() (ran int, virtual time.Duration) {
		env := sim.NewEnv(7)
		defer env.Shutdown()
		rt := NewSim(env)
		if rt.SimEnv() != env {
			t.Fatal("SimEnv mismatch")
		}
		for i := 0; i < 8; i++ {
			rt.Go("worker", func(tk Task) {
				before := tk.Now()
				for j := 0; j < 10; j++ {
					tk.Sleep(time.Millisecond)
				}
				if tk.Now() <= before {
					t.Error("Now did not advance across Sleep")
				}
				ran++
			})
		}
		transportRoundTrips(t, rt, "svc")
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return ran, env.Now().Duration()
	}
	r1, t1 := run()
	r2, t2 := run()
	if r1 != 8 || r1 != r2 || t1 != t2 {
		t.Fatalf("sim runs diverge: (%d, %s) vs (%d, %s)", r1, t1, r2, t2)
	}
	if t1 < 10*time.Millisecond {
		t.Fatalf("virtual clock only advanced %s", t1)
	}
}

// TestSimDialRefused checks the loopback namespace is per-runtime and
// unknown addresses are refused.
func TestSimDialRefused(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	rt := NewSim(env)
	if _, err := rt.Dial("nowhere"); err == nil {
		t.Fatal("Dial of unbound address succeeded")
	}
	if _, err := rt.Listen("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Listen("svc"); err == nil {
		t.Fatal("double Listen on one address succeeded")
	}
	other := NewSim(env)
	if _, err := other.Dial("svc"); err == nil {
		t.Fatal("listener leaked across SimRuntime namespaces")
	}
}

// waitFor polls cond with the test's generous deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(stop) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// echoServer is a frame server that echoes, hangs up on an empty frame,
// and counts how its connections ended.
type echoServer struct {
	opened, closed, cleaned int
	cleanup                 bool // give closed a cleanup to run
}

func (e *echoServer) open() (func(Task, []byte) ([]byte, bool), func() func(Task)) {
	e.opened++
	serve := func(tk Task, frame []byte) ([]byte, bool) {
		tk.Sleep(time.Microsecond) // a request may block its sender
		return frame, len(frame) > 0
	}
	closed := func() func(Task) {
		e.closed++
		if !e.cleanup {
			return nil
		}
		return func(Task) { e.cleaned++ }
	}
	return serve, closed
}

// TestSimListenerModes: a sim listener either queues connections for
// Accept or serves frames, and which is settled by the first of
// ServeFrames and Dial.
func TestSimListenerModes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		before     func(rt *SimRuntime, ln *simListener) // runs ahead of the ServeFrames under test
		wantOK     bool                                  // that ServeFrames succeeds
		wantServed bool                                  // the listener ends up serving frames: Accept is refused
	}{
		{"fresh listener", func(*SimRuntime, *simListener) {}, true, true},
		{"already dialed", func(rt *SimRuntime, _ *simListener) { rt.Dial("svc") }, false, false},
		{"already serving", func(_ *SimRuntime, ln *simListener) { ln.ServeFrames((&echoServer{}).open) }, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			defer env.Shutdown()
			rt := NewSim(env)
			l, err := rt.Listen("svc")
			if err != nil {
				t.Fatal(err)
			}
			ln := l.(*simListener)
			tc.before(rt, ln)
			srv := &echoServer{}
			if err := ln.ServeFrames(srv.open); (err == nil) != tc.wantOK {
				t.Fatalf("ServeFrames = %v, want success %v", err, tc.wantOK)
			}
			var acceptErr error
			rt.Go("client", func(tk Task) {
				conn, err := rt.Dial("svc")
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				defer conn.Close()
				if !tc.wantServed {
					return // nobody accepts: the frame would wait for ever
				}
				if err := conn.Send(tk, []byte("ping")); err != nil {
					t.Errorf("Send: %v", err)
				}
				if back, err := conn.Recv(tk); err != nil || string(back) != "ping" {
					t.Errorf("Recv = %q, %v", back, err)
				}
			})
			rt.Go("acceptor", func(tk Task) {
				var conn Conn
				if conn, acceptErr = ln.Accept(tk); acceptErr == nil {
					conn.Close()
				}
			})
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if (acceptErr != nil) != tc.wantServed {
				t.Errorf("Accept = %v on a listener with served = %v", acceptErr, tc.wantServed)
			}
			want := 0
			if tc.wantOK {
				want = 1
			}
			if srv.opened != want || srv.closed != want {
				t.Errorf("frame server opened %d and closed %d connections, want %d", srv.opened, srv.closed, want)
			}
		})
	}
}

// TestSimServedConn drives a served connection through its contract:
// replies queue behind a window of Sends, a hang-up delivers its reply
// before io.EOF and fails the next Send, the server hears of the end
// exactly once, and cleanup — when there is any — runs on one daemon
// started at that instant, even if the Close arrives mid-request.
func TestSimServedConn(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	rt := NewSim(env)
	ln, err := rt.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := &echoServer{cleanup: true}
	if err := ln.(*simListener).ServeFrames(srv.open); err != nil {
		t.Fatal(err)
	}
	spawned := func() uint64 { return env.Stats().ProcsSpawned }
	rt.Go("client", func(tk Task) {
		conn, _ := rt.Dial("svc")
		frame := []byte("a")
		for _, s := range []string{"a", "b", ""} {
			frame = append(frame[:0], s...) // one buffer: Send must be done with it
			if err := conn.Send(tk, frame); err != nil {
				t.Errorf("Send(%q): %v", s, err)
			}
		}
		if tk.Now() != 3*time.Microsecond {
			t.Errorf("three requests of 1µs each returned at %s", tk.Now())
		}
		for _, want := range []string{"a", "b", ""} {
			if back, err := conn.Recv(tk); err != nil || string(back) != want {
				t.Errorf("Recv = %q, %v, want %q", back, err, want)
			}
		}
		if _, err := conn.Recv(tk); err != io.EOF {
			t.Errorf("Recv after the hang-up = %v, want io.EOF", err)
		}
		if err := conn.Send(tk, frame); err != io.ErrClosedPipe {
			t.Errorf("Send after the hang-up = %v, want io.ErrClosedPipe", err)
		}
		before := spawned()
		conn.Close()
		if srv.closed != 1 || spawned() != before {
			t.Errorf("Close after the hang-up: closed called %d times, %d processes started", srv.closed, spawned()-before)
		}

		// A second connection, closed by another task while its request
		// is executing: the end waits for the request.
		conn, _ = rt.Dial("svc")
		env.After(500*time.Nanosecond, func() {
			conn.Close()
			if srv.closed != 1 {
				t.Error("Close ended the connection under a running request")
			}
		})
		before = spawned()
		if err := conn.Send(tk, []byte("c")); err != nil {
			t.Errorf("Send closed mid-request: %v", err)
		}
		if srv.closed != 2 || spawned() != before+1 {
			t.Errorf("after the request: closed called %d times, %d processes started, want 2 and 1", srv.closed, spawned()-before)
		}
		if _, err := conn.Recv(tk); err != io.EOF {
			t.Errorf("Recv on the closed connection = %v, want io.EOF", err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.cleaned != 2 {
		t.Errorf("%d cleanups ran, want 2", srv.cleaned)
	}
}
