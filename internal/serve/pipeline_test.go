package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	goruntime "runtime"
	"testing"
	"time"

	"ngdc/internal/runtime"
)

// rawDial opens a live transport connection with no Client on top.
func rawDial(t *testing.T, rt *runtime.RealRuntime, addr string) runtime.Conn {
	t.Helper()
	conn, err := rt.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func mustRequest(t *testing.T, r Request) []byte {
	t.Helper()
	frame, err := AppendRequest(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestLiveMalformedRequestAnsweredBeforeClose: the StatusErr reply to a
// frame that does not parse is the handler's last Send before it closes
// the connection; Close has to put it on the wire.
func TestLiveMalformedRequestAnsweredBeforeClose(t *testing.T) {
	rt, addr := startLive(t, Options{})
	conn := rawDial(t, rt, addr)
	if err := conn.Send(nil, []byte{byte(OpPut), 0, 0}); err != nil { // shorter than a request header
		t.Fatal(err)
	}
	frame, err := conn.Recv(nil)
	if err != nil {
		t.Fatalf("no reply to the malformed request: %v", err)
	}
	if st, msg, _ := DecodeResponse(frame); st != StatusErr || len(msg) == 0 {
		t.Fatalf("reply = status %d %q, want StatusErr with a message", st, msg)
	}
	if _, err := conn.Recv(nil); err != io.EOF {
		t.Fatalf("Recv after the error reply = %v, want io.EOF", err)
	}
}

// TestLiveOversizedFrameRefusedBeforeAllocating: a peer that announces a
// 16 MiB frame is refused from the length prefix alone. The handler
// answers StatusErr, closes, and never allocates what was announced.
func TestLiveOversizedFrameRefusedBeforeAllocating(t *testing.T) {
	_, addr := startLive(t, Options{})
	sock, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	sock.SetDeadline(time.Now().Add(10 * time.Second))

	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 16<<20)
	if _, err := sock.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(sock, hdr[:]); err != nil {
		t.Fatalf("no reply to the oversized announcement: %v", err)
	}
	reply := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(sock, reply); err != nil {
		t.Fatal(err)
	}
	if st, msg, _ := DecodeResponse(reply); st != StatusErr || !bytes.Contains(msg, []byte("exceeds limit")) {
		t.Fatalf("reply = status %d %q, want StatusErr naming the limit", st, msg)
	}
	if n, err := sock.Read(hdr[:]); err != io.EOF {
		t.Fatalf("read after the refusal = %d bytes, %v, want io.EOF", n, err)
	}
	goruntime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refusing a 16 MiB announcement allocated %d bytes, want well under 1 MiB", got)
	}
}

// TestLiveEchoNotHeldBehindLockWait: connection 2 pipelines [echo,
// lock X] while connection 1 holds X. The handler must flush the echo
// reply before it parks on X, so it arrives while X is still held.
func TestLiveEchoNotHeldBehindLockWait(t *testing.T) {
	rt, addr := startLive(t, Options{Locks: 4})
	holder, err := Dial(rt, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.Lock(nil, 3, true); err != nil {
		t.Fatal(err)
	}

	conn := rawDial(t, rt, addr)
	for _, r := range []Request{{Op: OpEcho, Val: []byte("before the lock")}, {Op: OpLock, Lock: 3, Excl: true}} {
		if err := conn.Send(nil, mustRequest(t, r)); err != nil {
			t.Fatal(err)
		}
	}
	replies := make(chan []byte)
	go func() {
		defer close(replies)
		for i := 0; i < 2; i++ {
			frame, err := conn.Recv(nil)
			if err != nil {
				t.Errorf("reply %d: %v", i, err)
				return
			}
			replies <- frame
		}
	}()
	select {
	case frame := <-replies:
		if st, val, _ := DecodeResponse(frame); st != StatusOK || string(val) != "before the lock" {
			t.Fatalf("first reply = status %d %q, want the echo", st, val)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("echo reply withheld while the lock behind it is contended")
	}
	if err := holder.Unlock(nil, 3, true); err != nil {
		t.Fatal(err)
	}
	if st, _, _ := DecodeResponse(<-replies); st != StatusOK {
		t.Fatalf("lock reply after the holder's unlock = status %d, want OK", st)
	}
}

// TestLiveSteadyStateAllocations pins what one connection's echo /
// put-same-size / get / lock / unlock round costs the whole process once
// warm: the Key string DecodeRequest makes for the put and for the get,
// and nothing else — no per-frame header, frame, value copy or reply.
// The client side reads into one buffer so that only the server's
// allocations are left to count.
func TestLiveSteadyStateAllocations(t *testing.T) {
	rt, addr := startLive(t, Options{})
	conn := rawDial(t, rt, addr)
	into := conn.(intoReceiver)
	val := bytes.Repeat([]byte{9}, 64)
	round := [][]byte{
		mustRequest(t, Request{Op: OpEcho, Val: val}),
		mustRequest(t, Request{Op: OpPut, Key: "steady", Val: val}),
		mustRequest(t, Request{Op: OpGet, Key: "steady"}),
		mustRequest(t, Request{Op: OpLock, Lock: 1, Excl: true}),
		mustRequest(t, Request{Op: OpUnlock, Lock: 1, Excl: true}),
	}
	want := [][]byte{val, nil, val, nil, nil}
	buf := make([]byte, maxRequestFrame)
	step := func() {
		for _, frame := range round {
			if err := conn.Send(nil, frame); err != nil {
				t.Fatal(err)
			}
		}
		for i := range round {
			frame, err := into.RecvInto(nil, buf)
			if err != nil {
				t.Fatal(err)
			}
			if st, got, _ := DecodeResponse(frame); st != StatusOK || !bytes.Equal(got, want[i]) {
				t.Fatalf("reply %d = status %d %q", i, st, got)
			}
		}
	}
	step() // first put stores the value; buffers and the held-lock map reach their size
	const keyStrings = 2
	allocs := testing.AllocsPerRun(200, step)
	t.Logf("%.2f allocations per round of %d requests", allocs, len(round))
	if allocs > keyStrings {
		t.Errorf("a steady-state round of %d requests allocates %.2f, want %d (the put's and the get's Key)",
			len(round), allocs, keyStrings)
	}
}

// TestLiveWindowedLoad runs the load generator with 60 requests in
// flight per connection: every reply must still verify, in order.
func TestLiveWindowedLoad(t *testing.T) {
	rt, addr := startLive(t, Options{})
	stats, err := RunLoad(rt, addr, 8, 60, 200*time.Millisecond)
	if err != nil || stats.Errors != 0 {
		t.Fatalf("windowed load: %v (%d errors in %d ops)", err, stats.Errors, stats.Ops)
	}
	if stats.Ops == 0 || stats.Ops%60 != 0 {
		t.Fatalf("%d ops, want a positive multiple of the window", stats.Ops)
	}
}
