package runtime

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// The flush rules are checked by counting the writes that reach the
// socket, never by timing them.

// countingConn counts the Write calls that reach the socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// socketPair returns the two ends of one loopback TCP ("tcp") or
// Unix-domain ("unix") connection.
func socketPair(t *testing.T, network string) (dialed, accepted net.Conn) {
	t.Helper()
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = t.TempDir() + "/pair.sock"
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if dialed, err = net.Dial(network, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if accepted, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	return dialed, accepted
}

// countedPair returns the two framed ends of one loopback TCP
// connection and the sockets under them.
func countedPair(t *testing.T) (a, b *realConn, aw, bw *countingConn) {
	t.Helper()
	dialed, accepted := socketPair(t, "tcp")
	aw, bw = &countingConn{Conn: dialed}, &countingConn{Conn: accepted}
	a, b = newRealConn(aw), newRealConn(bw)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, aw, bw
}

// echoFrames echoes every frame c receives until the peer closes.
func echoFrames(c *realConn, done chan<- error) {
	for {
		f, err := c.Recv(nil)
		if err == nil {
			err = c.Send(nil, f)
		}
		if err != nil {
			done <- err
			return
		}
	}
}

// TestRealConnPingPongWritesOncePerFrame: a caller that waits for each
// reply pays exactly one write per frame, on both sides.
func TestRealConnPingPongWritesOncePerFrame(t *testing.T) {
	a, b, aw, bw := countedPair(t)
	done := make(chan error, 1)
	go echoFrames(b, done)
	const rounds = 100
	frame := []byte("ping-pong frame")
	for i := 0; i < rounds; i++ {
		if err := a.Send(nil, frame); err != nil {
			t.Fatal(err)
		}
		got, err := a.Recv(nil)
		if err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("round %d: Recv = %q, %v", i, got, err)
		}
	}
	if aw.writes.Load() != rounds || bw.writes.Load() != rounds {
		t.Errorf("%d ping-pong rounds: %d writes on the caller, %d on the echoer, want %d each",
			rounds, aw.writes.Load(), bw.writes.Load(), rounds)
	}
	a.Close()
	if err := <-done; err != io.EOF {
		t.Errorf("echoer stopped with %v, want io.EOF", err)
	}
}

// TestRealConnWindowSharesWrites: a window of frames sent before the
// first Recv leaves in as many writes as it fills the 4 KiB buffer, and
// the echoer's replies come back batched the same way.
func TestRealConnWindowSharesWrites(t *testing.T) {
	a, b, aw, bw := countedPair(t)
	done := make(chan error, 1)
	go echoFrames(b, done)
	const window = 60
	frame := bytes.Repeat([]byte{7}, 80) // 60 x (4+80) = 5040 bytes: the buffer fills once
	kept := make([][]byte, 0, window)
	for i := 0; i < window; i++ {
		if err := a.Send(nil, frame); err != nil {
			t.Fatal(err)
		}
	}
	if w := aw.writes.Load(); w > 1 {
		t.Errorf("%d writes before the first Recv, want at most the one the full buffer forces", w)
	}
	for i := 0; i < window; i++ {
		got, err := a.Recv(nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		kept = append(kept, got)
	}
	// Frames from Recv are the caller's: all 60 are still intact.
	for i, got := range kept {
		if !bytes.Equal(got, frame) {
			t.Fatalf("retained reply %d was overwritten: %q", i, got)
		}
	}
	if w := aw.writes.Load(); w > 2 {
		t.Errorf("a %d-frame window took %d writes, want <= 2", window, w)
	}
	// The echoer flushes when its input runs dry; how the kernel cuts
	// the stream into reads decides whether that is 2 times or a few.
	if w := bw.writes.Load(); w > 6 {
		t.Errorf("the echoer answered a %d-frame window in %d writes, want a handful", window, w)
	}
	a.Close()
	<-done
}

// TestRealConnSendWhileReceiverParked: with one task waiting in Recv, a
// Send from another task goes out by itself — nothing else is ever
// called on the sending connection.
func TestRealConnSendWhileReceiverParked(t *testing.T) {
	a, b, aw, _ := countedPair(t)
	recvd := make(chan error, 1)
	go func() {
		_, err := a.Recv(nil)
		recvd <- err
	}()
	waitFor(t, a.waiting.Load)
	if err := a.Send(nil, []byte("from the second task")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(nil) // hangs (test timeout) if the frame stayed buffered
	if err != nil || string(got) != "from the second task" {
		t.Fatalf("peer Recv = %q, %v", got, err)
	}
	if w := aw.writes.Load(); w != 1 {
		t.Errorf("%d writes, want 1", w)
	}
	if err := b.Send(nil, []byte("release")); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := <-recvd; err != nil {
		t.Fatalf("parked Recv: %v", err)
	}
	// The connection now knows two tasks drive it: its receiver will not
	// write for the sender again, so every Send goes out by itself.
	if err := a.Send(nil, []byte("nobody is receiving")); err != nil {
		t.Fatal(err)
	}
	if w := aw.writes.Load(); w != 2 {
		t.Errorf("%d writes after a Send with no Recv in progress, want 2", w)
	}
}

// TestRealConnFlushesBeforeWaitingForBody: a header that arrives without
// its body makes Recv wait just as an empty socket does, so the owner's
// buffered reply has to go out first.
func TestRealConnFlushesBeforeWaitingForBody(t *testing.T) {
	a, _, aw, bw := countedPair(t)
	peer := bw.Conn // the raw socket: this peer cuts a frame in two
	peer.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := peer.Write([]byte{0, 0, 0, 1, 'x', 0, 0, 0, 3}); err != nil { // frame "x", then a bare header
		t.Fatal(err)
	}
	if got, err := a.Recv(nil); err != nil || string(got) != "x" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	if n := a.rd.Buffered(); n != 4 {
		t.Skipf("the kernel split a 9-byte write: %d bytes buffered behind the first frame", n)
	}
	if err := a.Send(nil, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	recvd := make(chan string, 1)
	go func() {
		got, _ := a.Recv(nil)
		recvd <- string(got)
	}()
	reply := make([]byte, 4+len("reply"))
	if _, err := io.ReadFull(peer, reply); err != nil { // times out if the reply waits for the body
		t.Fatalf("reply withheld while Recv waits for a frame body: %v", err)
	}
	if w := aw.writes.Load(); w != 1 {
		t.Errorf("%d writes, want 1", w)
	}
	if _, err := peer.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if got := <-recvd; got != "abc" {
		t.Fatalf("Recv of the split frame = %q, want abc", got)
	}
}

// TestRealConnCloseDoesNotWaitForAStalledPeer: with the socket full
// towards a peer that has stopped reading, Close gives the buffered
// frames closeFlushTimeout and then closes anyway.
func TestRealConnCloseDoesNotWaitForAStalledPeer(t *testing.T) {
	// A Unix socket: its buffer is a fixed size, TCP's grows as it likes.
	sock, peer := socketPair(t, "unix")
	defer peer.Close()
	a := newRealConn(sock)
	for _, size := range []int{64 << 10, 1 << 10} { // fill the socket under the framing
		chunk := make([]byte, size)
		for {
			sock.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
			if _, err := sock.Write(chunk); err != nil {
				break
			}
		}
	}
	sock.SetWriteDeadline(time.Time{})
	if err := a.Send(nil, make([]byte, 4000)); err != nil { // stays in the 4 KiB buffer
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	start := time.Now()
	go func() { closed <- a.Close() }()
	select {
	case err := <-closed:
		if err == nil {
			t.Error("Close reported no error for frames it could not deliver")
		}
		if d := time.Since(start); d < closeFlushTimeout/2 {
			t.Errorf("Close gave up after %v, want it to try for %v", d, closeFlushTimeout)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close is still waiting for a peer that does not read")
	}
}

// TestRealConnCloseDeliversBufferedSends: frames sent and never followed
// by a Recv still reach the peer when the connection closes.
func TestRealConnCloseDeliversBufferedSends(t *testing.T) {
	a, b, aw, _ := countedPair(t)
	for _, s := range []string{"one", "two"} {
		if err := a.Send(nil, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if w := aw.writes.Load(); w != 0 {
		t.Fatalf("%d writes before Close, want 0", w)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"one", "two"} {
		got, err := b.Recv(nil)
		if err != nil || string(got) != want {
			t.Fatalf("Recv = %q, %v, want %q", got, err, want)
		}
	}
	if _, err := b.Recv(nil); err != io.EOF {
		t.Fatalf("Recv after the last frame = %v, want io.EOF", err)
	}
}

// TestRealConnRecvInto: RecvInto fills the caller's buffer, allocates
// nothing, and refuses a frame that does not fit from its length prefix
// alone.
func TestRealConnRecvInto(t *testing.T) {
	a, b, _, _ := countedPair(t)
	buf := make([]byte, 16)
	frame := []byte("sixteen bytes ok")
	allocs := testing.AllocsPerRun(50, func() {
		if err := a.Send(nil, frame); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := b.RecvInto(nil, buf)
		if err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("RecvInto = %q, %v", got, err)
		}
		if &got[0] != &buf[0] {
			t.Fatal("RecvInto returned a frame outside the caller's buffer")
		}
	})
	if allocs != 0 {
		t.Errorf("Send+Flush+RecvInto allocates %.1f per frame, want 0", allocs)
	}
	if err := a.Send(nil, make([]byte, 17)); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvInto(nil, buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("RecvInto of a 17-byte frame into 16 bytes = %v, want ErrFrameTooLarge", err)
	}
}

// TestRealConnFullDuplexPastSocketBuffers streams far more than the
// kernel's socket buffers hold from one task while a second task drains
// the echoes on the same Conn. The peer is a plain Recv/Send loop, so
// once both directions fill, the only thing that keeps bytes moving is
// the receiver draining while the sender sits in write(2): Recv must
// never wait for, or block in place of, the sender.
func TestRealConnFullDuplexPastSocketBuffers(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			dialed, accepted := socketPair(t, network)
			a, b := newRealConn(dialed), newRealConn(accepted)
			defer a.Close()
			defer b.Close()
			echoed := make(chan error, 1)
			go echoFrames(b, echoed)

			const frames = 40000 // x 1 KiB: ~40 MB each way, socket buffers hold well under 1 MB
			frame := bytes.Repeat([]byte{0xA5}, 1024)
			sent := make(chan error, 1)
			go func() {
				for i := 0; i < frames; i++ {
					if err := a.Send(nil, frame); err != nil {
						sent <- err
						return
					}
				}
				sent <- a.Flush()
			}()
			drained := make(chan error, 1)
			go func() {
				for i := 0; i < frames; i++ {
					got, err := a.Recv(nil)
					if err != nil {
						drained <- err
						return
					}
					if len(got) != len(frame) {
						drained <- errors.New("short echo")
						return
					}
				}
				drained <- nil
			}()
			timeout := time.After(60 * time.Second)
			for _, ch := range []chan error{sent, drained} {
				select {
				case err := <-ch:
					if err != nil {
						t.Fatal(err)
					}
				case <-timeout:
					t.Fatal("full-duplex stream stalled: sender, receiver and peer are waiting on each other")
				}
			}
		})
	}
}
