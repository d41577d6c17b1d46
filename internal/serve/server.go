package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ngdc/internal/dlm"
	"ngdc/internal/runtime"
)

// Options sizes a server. The zero value is usable.
type Options struct {
	// Locks is the lock-namespace size (default dlm.DefaultLocks).
	Locks int
	// Nodes is the simulated backend's cluster size (default 4);
	// ignored by the live backend.
	Nodes int
	// Seed is ignored: the simulated backend runs on the runtime's
	// environment, which was seeded when it was created. The field stays
	// because the repository benchmark sets it.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Locks <= 0 {
		o.Locks = dlm.DefaultLocks
	}
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	return o
}

// session is one connection's view of a backend. Sessions are used by a
// single connection-handler task at a time.
type session interface {
	// Put stores val under key.
	Put(t runtime.Task, key string, val []byte) error
	// Get appends key's value to dst; ok is false when it does not
	// exist.
	Get(t runtime.Task, key string, dst []byte) (out []byte, ok bool, err error)
	// Lock blocks until lock is held in the requested mode. If it has
	// to wait it calls beforeWait first, once it has joined the queue.
	Lock(t runtime.Task, lock int, excl bool, beforeWait func()) error
	// TryLock attempts a non-blocking acquire.
	TryLock(t runtime.Task, lock int, excl bool) (bool, error)
	// Unlock releases a held lock.
	Unlock(t runtime.Task, lock int, excl bool) error
}

// backend is one of the two service implementations: the simulated
// framework (simBackend) or the live in-memory one (liveBackend).
type backend interface {
	session(id int) session
	numLocks() int
}

// Server hosts the request surface on a runtime. Construct with New,
// bind listeners with Serve, then drive the runtime (rt.Run for the
// simulator; for the live runtime the accept loops are daemons and the
// caller decides when to Shutdown).
type Server struct {
	rt runtime.Runtime
	bk backend

	mu     sync.Mutex
	nextID int
}

// New builds a server on rt: a deterministic simulated-framework
// backend on a SimRuntime, a live concurrent backend on a RealRuntime.
func New(rt runtime.Runtime, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{rt: rt}
	if rt.Mode() == runtime.SimMode {
		s.bk = newSimBackend(rt.SimEnv(), opts)
	} else {
		s.bk = newLiveBackend(opts)
	}
	return s
}

// Serve starts serving connections to l. A listener that can serve
// frames (frameServer: the simulated one) needs no task of the server's:
// each connection's requests execute on the task that sends them. Any
// other gets an accept loop and one handler per connection, as daemon
// tasks: they do not hold Run open, and on the simulator a parked
// handler does not count as a deadlock. That is also what a simulated
// listener gets if it was dialed before Serve.
func (s *Server) Serve(l runtime.Listener) {
	if fs, ok := l.(frameServer); ok && fs.ServeFrames(s.serveFrames) == nil {
		return
	}
	s.rt.GoDaemon("serve-accept "+l.Addr(), func(t runtime.Task) {
		for {
			conn, err := l.Accept(t)
			if err != nil {
				return
			}
			st := s.newConn(func() { conn.Flush() })
			s.rt.GoDaemon(fmt.Sprintf("serve-conn-%d", st.id), func(t runtime.Task) { s.handle(t, st, conn) })
		}
	})
}

// maxRequestFrame is the largest request the wire format can express
// with a legal key and value. The server refuses a longer frame with
// StatusErr and closes; on a buffering connection it does so from the
// length prefix alone, so a peer cannot make it hold more than this.
const maxRequestFrame = reqHdrSize + MaxKey + MaxValue

// intoReceiver is the optional capability of a runtime.Conn (the live
// transport has it) to receive into a buffer its owner reuses.
type intoReceiver interface {
	RecvInto(t runtime.Task, buf []byte) ([]byte, error)
}

// frameServer is the optional capability of a runtime.Listener (the
// simulated one has it, and runtime.Listener's comment is its contract)
// to run a connection's requests on the task that sends them.
type frameServer interface {
	ServeFrames(open func() (
		serve func(t runtime.Task, frame []byte) (resp []byte, keep bool),
		closed func() (cleanup func(t runtime.Task)),
	)) error
}

// connState tracks one connection's session and held locks. Hold
// validation lives here — above both backends — so a misuse (unlock of
// a lock not held, double lock) yields the identical error in both
// modes.
type connState struct {
	id   int
	sess session
	held map[int]bool // lock -> exclusive?
	// flush writes out the replies the connection still buffers. The
	// failure it ignores stays in the connection: the next Send reports
	// it.
	flush func()
}

// newConn numbers a new connection and opens its session.
func (s *Server) newConn(flush func()) *connState {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()
	return &connState{id: id, sess: s.bk.session(id), held: map[int]bool{}, flush: flush}
}

// release gives back the locks the peer still held when its connection
// ended, in a stable order so the simulated backend stays deterministic.
func (st *connState) release(t runtime.Task) {
	ids := make([]int, 0, len(st.held))
	for lock := range st.held {
		ids = append(ids, lock)
	}
	sort.Ints(ids)
	for _, lock := range ids {
		st.sess.Unlock(t, lock, st.held[lock])
	}
}

// handle drives one connection from a task of its own: receive, serve,
// send, until EOF or a protocol error, then release.
func (s *Server) handle(t runtime.Task, st *connState, conn runtime.Conn) {
	defer func() {
		conn.Close()
		st.release(t)
	}()
	// Every request is consumed before the next receive (DecodeRequest
	// copies the key, Put the value, the reply the echo), so a connection
	// that offers RecvInto gets one buffer for all of them.
	recv := func() ([]byte, error) { return conn.Recv(t) }
	if ir, ok := conn.(intoReceiver); ok {
		buf := make([]byte, maxRequestFrame)
		recv = func() ([]byte, error) { return ir.RecvInto(t, buf) }
	}
	var resp []byte
	for keep := true; keep; {
		frame, err := recv()
		if err != nil {
			// A buffering connection refuses an oversized frame from its
			// length prefix, before serveFrame could see it.
			if errors.Is(err, runtime.ErrFrameTooLarge) {
				conn.Send(t, appendTooLarge(resp[:0]))
			}
			return
		}
		resp, keep = s.serveFrame(t, st, frame, resp[:0])
		if err := conn.Send(t, resp); err != nil {
			return
		}
	}
}

// serveFrames drives one connection from its sender's task: it is the
// open function of a frameServer. There is nothing to flush — the
// reply to a request is queued before the next one starts — and nobody
// to release abandoned locks unless there are some.
func (s *Server) serveFrames() (serve func(runtime.Task, []byte) ([]byte, bool), closed func() func(runtime.Task)) {
	st := s.newConn(func() {})
	var resp []byte
	serve = func(t runtime.Task, frame []byte) (_ []byte, keep bool) {
		resp, keep = s.serveFrame(t, st, frame, resp[:0])
		return resp, keep
	}
	closed = func() func(runtime.Task) {
		if len(st.held) == 0 {
			return nil
		}
		return st.release
	}
	return serve, closed
}

// serveFrame is the protocol body, the same under both drivers: it
// decodes one request frame, executes it and appends the encoded reply
// to resp. keep is false when the frame was not a request — too long or
// malformed — and the reply is the last the connection gets.
func (s *Server) serveFrame(t runtime.Task, st *connState, frame, resp []byte) (_ []byte, keep bool) {
	if len(frame) > maxRequestFrame {
		return appendTooLarge(resp), false
	}
	req, err := DecodeRequest(frame)
	if err != nil {
		return appendErr(resp, "%v", err), false
	}
	return s.dispatch(t, st, req, resp), true
}

// appendTooLarge encodes the refusal of a frame beyond maxRequestFrame.
func appendTooLarge(dst []byte) []byte {
	return appendErr(dst, "serve: request frame exceeds limit %d", maxRequestFrame)
}

// appendErr encodes a StatusErr response carrying the formatted message.
func appendErr(dst []byte, format string, args ...any) []byte {
	return fmt.Appendf(append(dst, byte(StatusErr)), format, args...)
}

// dispatch executes one request against the connection's session and
// appends the encoded response to resp.
func (s *Server) dispatch(t runtime.Task, st *connState, req Request, resp []byte) []byte {
	switch req.Op {
	case OpEcho:
		return AppendResponse(resp, StatusOK, req.Val)

	case OpPut:
		if len(req.Val) > MaxValue {
			return appendErr(resp, "serve: value of %d bytes exceeds limit %d", len(req.Val), MaxValue)
		}
		if req.Key == "" {
			return appendErr(resp, "serve: empty key")
		}
		if err := st.sess.Put(t, req.Key, req.Val); err != nil {
			return appendErr(resp, "%v", err)
		}
		return AppendResponse(resp, StatusOK, nil)

	case OpGet:
		out, ok, err := st.sess.Get(t, req.Key, append(resp, byte(StatusOK)))
		if err != nil {
			return appendErr(resp, "%v", err)
		}
		if !ok {
			return AppendResponse(resp, StatusNotFound, nil)
		}
		return out

	case OpLock, OpTryLock:
		lock := int(req.Lock)
		if lock < 0 || lock >= s.bk.numLocks() {
			return appendErr(resp, "serve: lock %d outside namespace of %d", lock, s.bk.numLocks())
		}
		if _, ok := st.held[lock]; ok {
			return appendErr(resp, "serve: lock %d already held on this connection", lock)
		}
		// A Lock that has to wait flushes first: the replies this
		// connection is already owed go out, or a pipelined
		// [echo, lock X] would hold the echo back for as long as X stays
		// taken.
		if req.Op == OpTryLock {
			got, err := st.sess.TryLock(t, lock, req.Excl)
			if err != nil {
				return appendErr(resp, "%v", err)
			}
			if !got {
				return AppendResponse(resp, StatusBusy, nil)
			}
		} else if err := st.sess.Lock(t, lock, req.Excl, st.flush); err != nil {
			return appendErr(resp, "%v", err)
		}
		st.held[lock] = req.Excl
		return AppendResponse(resp, StatusOK, nil)

	case OpUnlock:
		lock := int(req.Lock)
		excl, ok := st.held[lock]
		if !ok || excl != req.Excl {
			return appendErr(resp, "serve: lock %d not held in that mode on this connection", lock)
		}
		if err := st.sess.Unlock(t, lock, req.Excl); err != nil {
			return appendErr(resp, "%v", err)
		}
		delete(st.held, lock)
		return AppendResponse(resp, StatusOK, nil)
	}
	return appendErr(resp, "serve: unknown op %d", req.Op)
}
