package serve

import (
	"encoding/binary"
	"fmt"

	"ngdc/internal/core"
	"ngdc/internal/ddss"
	"ngdc/internal/dlm"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
)

// simBackend hosts the request surface on the full simulated framework:
// locking goes through the N-CoSED lock manager, sharing through
// verbs-based DDSS segments, all over the paper's fabric cost model on
// the caller's SimRuntime. Runs are deterministic, which makes this
// backend the repeatable harness for the live one.
type simBackend struct {
	f    *core.Framework
	opts Options
}

func newSimBackend(env *sim.Env, opts Options) *simBackend {
	f := core.NewOn(env, core.Config{
		Nodes:    opts.Nodes,
		LockKind: dlm.NCoSED,
		NumLocks: opts.Locks,
	})
	return &simBackend{f: f, opts: opts}
}

func (b *simBackend) numLocks() int { return b.opts.Locks }

// session binds connection id to a home node round-robin, giving it
// that node's lock-manager and substrate clients.
func (b *simBackend) session(id int) session {
	node := id % b.opts.Nodes
	return &simSession{
		lc:   b.f.Locks.Client(node),
		sc:   b.f.Sharing.Client(node),
		open: map[string]*ddss.Handle{},
	}
}

// kvSlot is the fixed DDSS segment size a key maps onto: a 2-byte
// length prefix plus up to MaxValue bytes of value.
const kvSlot = 2 + MaxValue

type simSession struct {
	lc   dlm.Client
	sc   *ddss.Client
	open map[string]*ddss.Handle
	slot [kvSlot]byte
}

// handle returns the session's handle for key, opening or (when create
// is set) allocating the segment. A missing segment with create unset
// returns (nil, nil).
func (s *simSession) handle(t runtime.Task, key string, create bool) (*ddss.Handle, error) {
	if h, ok := s.open[key]; ok {
		return h, nil
	}
	h, err := s.sc.Open(key)
	if err != nil {
		if !create {
			return nil, nil
		}
		h, err = s.sc.Allocate(t.SimProc(), key, kvSlot, ddss.Write, ddss.NodeAuto)
		if err != nil {
			return nil, err
		}
	}
	s.open[key] = h
	return h, nil
}

func (s *simSession) Put(t runtime.Task, key string, val []byte) error {
	h, err := s.handle(t, key, true)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint16(s.slot[:2], uint16(len(val)))
	copy(s.slot[2:], val)
	// Only the prefix and value are written; a longer previous value's
	// tail may stay behind in the slot, which the length prefix hides.
	_, err = h.Put(t.SimProc(), s.slot[:2+len(val)])
	return err
}

func (s *simSession) Get(t runtime.Task, key string, dst []byte) ([]byte, bool, error) {
	h, err := s.handle(t, key, false)
	if err != nil {
		return nil, false, err
	}
	if h == nil {
		return nil, false, nil
	}
	if _, err := h.Get(t.SimProc(), s.slot[:]); err != nil {
		return nil, false, err
	}
	n := int(binary.BigEndian.Uint16(s.slot[:2]))
	if n > MaxValue {
		return nil, false, fmt.Errorf("serve: corrupt segment %q", key)
	}
	return append(dst, s.slot[2:2+n]...), true, nil
}

func lockMode(excl bool) dlm.Mode {
	if excl {
		return dlm.Exclusive
	}
	return dlm.Shared
}

// Lock never calls beforeWait: the sim transport buffers nothing — a
// served connection has queued every earlier reply before this request
// started — so a parked session holds nothing back.
func (s *simSession) Lock(t runtime.Task, lock int, excl bool, _ func()) error {
	return s.lc.Lock(t.SimProc(), lock, lockMode(excl))
}

func (s *simSession) TryLock(t runtime.Task, lock int, excl bool) (bool, error) {
	return s.lc.TryLock(t.SimProc(), lock, lockMode(excl))
}

func (s *simSession) Unlock(t runtime.Task, lock int, excl bool) error {
	return s.lc.Unlock(t.SimProc(), lock, lockMode(excl))
}
