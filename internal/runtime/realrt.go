package runtime

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ngdc/internal/sim"
)

// maxFrame bounds one framed message on the real transport; a length
// prefix beyond it is treated as a corrupt stream.
const maxFrame = 16 << 20

// RealRuntime runs tasks as plain goroutines over the wall clock, with
// the transport mapped to loopback TCP ("host:port") or Unix-domain
// sockets ("unix:/path") carrying length-prefixed frames. Nothing about
// it is deterministic: goroutine interleaving and the kernel's socket
// scheduling are real. The simulator remains the repeatable harness for
// logic built over the abstraction.
type RealRuntime struct {
	start time.Time

	tasks sync.WaitGroup // non-daemon tasks; Run waits on these

	mu        sync.Mutex
	listeners []net.Listener
	closed    bool
}

// NewReal creates a wall-clock runtime. Its clock starts now.
func NewReal() *RealRuntime { return &RealRuntime{start: time.Now()} }

// SimEnv returns nil: there is no simulation behind the live runtime.
func (r *RealRuntime) SimEnv() *sim.Env { return nil }

// Now returns the wall time elapsed since NewReal.
func (r *RealRuntime) Now() time.Duration { return time.Since(r.start) }

// Go starts a goroutine task; Run waits for it.
func (r *RealRuntime) Go(name string, fn func(t Task)) {
	r.tasks.Add(1)
	go func() {
		defer r.tasks.Done()
		fn(realTask{r})
	}()
}

// GoDaemon starts a background goroutine Run does not wait for. Daemons
// blocked in Accept/Recv exit when Shutdown closes their listener or
// their peer closes the connection.
func (r *RealRuntime) GoDaemon(name string, fn func(t Task)) {
	go fn(realTask{r})
}

// Run blocks until every task started with Go has returned.
func (r *RealRuntime) Run() error {
	r.tasks.Wait()
	return nil
}

// Shutdown closes all listeners, unblocking daemon accept loops.
// Established connections are owned by their tasks and close with them.
func (r *RealRuntime) Shutdown() {
	r.mu.Lock()
	listeners := r.listeners
	r.listeners = nil
	r.closed = true
	r.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
}

// splitAddr maps the runtime address form onto a net network/address
// pair: "unix:/path" is a Unix-domain socket, anything else TCP.
func splitAddr(addr string) (network, address string) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", path
	}
	return "tcp", addr
}

// Dial connects to a live listener.
func (r *RealRuntime) Dial(addr string) (Conn, error) {
	network, address := splitAddr(addr)
	c, err := net.Dial(network, address)
	if err != nil {
		return nil, err
	}
	return newRealConn(c), nil
}

// Listen binds a loopback TCP or Unix-domain address. The listener is
// closed by Shutdown if still open.
func (r *RealRuntime) Listen(addr string) (Listener, error) {
	network, address := splitAddr(addr)
	l, err := net.Listen(network, address)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		l.Close()
		return nil, fmt.Errorf("runtime: listen %q: runtime is shut down", addr)
	}
	r.listeners = append(r.listeners, l)
	r.mu.Unlock()
	return &realListener{network: network, l: l}, nil
}

// realTask adapts a goroutine to the Task interface.
type realTask struct{ rt *RealRuntime }

func (t realTask) Now() time.Duration    { return t.rt.Now() }
func (t realTask) Sleep(d time.Duration) { time.Sleep(d) }
func (t realTask) SimProc() *sim.Proc    { return nil }

type realListener struct {
	network string
	l       net.Listener
}

func (l *realListener) Accept(Task) (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newRealConn(c), nil
}

func (l *realListener) Addr() string {
	if l.network == "unix" {
		return "unix:" + l.l.Addr().String()
	}
	return l.l.Addr().String()
}

func (l *realListener) Close() error { return l.l.Close() }

// ErrFrameTooLarge is wrapped by the error a receive returns when the
// peer announces a frame beyond the receiver's limit (maxFrame for Recv,
// the buffer's capacity for RecvInto). The length prefix has been
// consumed and the body has not, so the connection is only good for
// Close.
var ErrFrameTooLarge = errors.New("runtime: frame exceeds the receive limit")

// realConn frames messages over a stream socket: a 4-byte big-endian
// length prefix per frame. Send and Recv each take their own lock, so
// one sender and one receiver may run concurrently. Send only appends
// to the write buffer; Conn's comment says when the buffer goes to the
// kernel.
//
// A receiver writes only for itself. While the connection has one owner
// that alternates Send and Recv, its Recv flushes before it waits. The
// first Send that finds a Recv waiting proves sender and receiver are
// different tasks (twoTasks, never cleared); from then on Send writes
// every frame out itself and Recv never touches the socket's write side:
// a receiver that blocked in write(2) for the sender would stop draining,
// and with the peer's replies backed up behind it nothing would move.
type realConn struct {
	c net.Conn

	sendMu sync.Mutex
	w      *bufio.Writer
	shdr   [4]byte // header scratch: a local would escape through bufio

	recvMu   sync.Mutex
	rd       *bufio.Reader
	rhdr     [4]byte
	waiting  atomic.Bool // a Recv has run out of buffered input and is on the socket
	twoTasks atomic.Bool
}

func newRealConn(c net.Conn) *realConn {
	return &realConn{c: c, w: bufio.NewWriter(c), rd: bufio.NewReader(c)}
}

func (c *realConn) Send(_ Task, frame []byte) error {
	if len(frame) > maxFrame {
		return fmt.Errorf("runtime: frame of %d bytes exceeds limit", len(frame))
	}
	c.sendMu.Lock()
	binary.BigEndian.PutUint32(c.shdr[:], uint32(len(frame)))
	_, err := c.w.Write(c.shdr[:])
	if err == nil {
		_, err = c.w.Write(frame)
	}
	c.sendMu.Unlock()
	// Looked at after the unlock: a receiver that went to wait while this
	// Send held sendMu could not flush and is counting on this.
	if c.waiting.Load() {
		c.twoTasks.Store(true)
	}
	if err == nil && c.twoTasks.Load() {
		err = c.Flush()
	}
	return err
}

// Flush writes out every frame Send has buffered.
func (c *realConn) Flush() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.w.Flush()
}

func (c *realConn) Recv(Task) ([]byte, error) { return c.recv(nil, maxFrame) }

// RecvInto is Recv into the caller's buffer: the frame is returned as
// buf[:n] and is valid until the caller reuses buf. It never allocates;
// a frame longer than cap(buf) fails with ErrFrameTooLarge before a byte
// of it is read, which is how a server bounds what a peer can make it
// hold.
func (c *realConn) RecvInto(_ Task, buf []byte) ([]byte, error) { return c.recv(buf, cap(buf)) }

// recv reads one frame of at most limit bytes, into buf when it fits.
func (c *realConn) recv(buf []byte, limit int) ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	defer c.doneWaiting()
	if c.rd.Buffered() < len(c.rhdr) {
		c.beforeWait()
	}
	if _, err := io.ReadFull(c.rd, c.rhdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(c.rhdr[:]))
	if n > limit {
		return nil, fmt.Errorf("%w: %d bytes announced, limit %d", ErrFrameTooLarge, n, limit)
	}
	if n > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if c.rd.Buffered() < n && !c.waiting.Load() {
		c.beforeWait() // the header came without its body
	}
	if _, err := io.ReadFull(c.rd, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// beforeWait runs when recv is about to wait on the socket. It marks the
// receiver waiting, then writes out the owner's buffered frames; the mark comes first, so a Send
// from another task either lands in this flush or sees the mark. It never
// waits for sendMu — the holder is such a Send, which looks at the mark
// once it lets go — and it leaves a write error in the writer for the
// next Send or Flush to report: what the peer sent before it went away
// is still worth reading.
func (c *realConn) beforeWait() {
	c.waiting.Store(true)
	if !c.twoTasks.Load() && c.sendMu.TryLock() {
		c.w.Flush()
		c.sendMu.Unlock()
	}
}

// doneWaiting clears the mark as recv returns. Most frames come out of
// the read buffer and never set it.
func (c *realConn) doneWaiting() {
	if c.waiting.Load() {
		c.waiting.Store(false)
	}
}

// closeFlushTimeout bounds the flush in Close, so a peer that has
// stopped reading cannot hold up its owner's teardown.
const closeFlushTimeout = time.Second

// Close flushes what Send buffered, then closes the socket. It does not
// wait for sendMu: a Send stuck in a write holds it, and closing the
// socket is what frees that Send.
func (c *realConn) Close() error {
	var ferr error
	if c.sendMu.TryLock() {
		if c.w.Buffered() > 0 {
			c.c.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
			ferr = c.w.Flush()
		}
		c.sendMu.Unlock()
	}
	if err := c.c.Close(); err != nil {
		return err
	}
	return ferr
}
