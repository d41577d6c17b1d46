package runtime

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
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

// countedPair returns the two framed ends of one loopback TCP
// connection and the sockets under them.
func countedPair(t *testing.T) (a, b *realConn, aw, bw *countingConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
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
	waitFor(t, func() bool {
		a.sendMu.Lock()
		defer a.sendMu.Unlock()
		return a.parked
	})
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
