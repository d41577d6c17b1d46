package serve

import (
	"sync"

	"ngdc/internal/dlm"
	"ngdc/internal/runtime"
)

// liveBackend is the real-goroutine implementation of the request
// surface: an in-memory key/value table and a table of fair
// shared/exclusive locks. Semantics mirror the simulated framework —
// each lock is a dlm.Queue: FIFO grant order, no request overtaken,
// shared cohorts granted in one burst; at most one hold per (connection,
// lock) — but nothing about its timing is deterministic.
type liveBackend struct {
	locks []liveLock

	mu sync.RWMutex
	kv map[string][]byte
}

func newLiveBackend(opts Options) *liveBackend {
	return &liveBackend{
		locks: make([]liveLock, opts.Locks),
		kv:    map[string][]byte{},
	}
}

func (b *liveBackend) numLocks() int { return len(b.locks) }

// session returns the shared backend: live sessions carry no state of
// their own (hold tracking lives in the server's connState).
func (b *liveBackend) session(int) session { return (*liveSession)(b) }

type liveSession liveBackend

// Put overwrites in place when the key already holds a value of the same
// length — readers copy out under the read lock, so nobody else holds
// the old bytes — and stores a fresh copy otherwise.
func (s *liveSession) Put(_ runtime.Task, key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.kv[key]; ok && len(old) == len(val) {
		copy(old, val)
		return nil
	}
	s.kv[key] = append([]byte(nil), val...)
	return nil
}

func (s *liveSession) Get(_ runtime.Task, key string, dst []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	val, ok := s.kv[key]
	return append(dst, val...), ok, nil
}

func (s *liveSession) Lock(_ runtime.Task, lock int, excl bool, beforeWait func()) error {
	s.locks[lock].acquire(excl, beforeWait)
	return nil
}

func (s *liveSession) TryLock(_ runtime.Task, lock int, excl bool) (bool, error) {
	return s.locks[lock].tryAcquire(excl), nil
}

func (s *liveSession) Unlock(_ runtime.Task, lock int, excl bool) error {
	s.locks[lock].release(excl)
	return nil
}

// liveLock is dlm.Queue under a mutex. A waiter blocks on its own
// channel, made only when it has to wait and closed when it is granted.
type liveLock struct {
	mu      sync.Mutex
	q       dlm.Queue[chan struct{}]
	granted []dlm.Waiter[chan struct{}] // release's scratch, under mu
}

func (l *liveLock) tryAcquire(excl bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.q.TryAcquire(excl)
}

func (l *liveLock) acquire(excl bool, beforeWait func()) {
	l.mu.Lock()
	if l.q.TryAcquire(excl) {
		l.mu.Unlock()
		return
	}
	ready := make(chan struct{})
	l.q.Acquire(ready, excl)
	l.mu.Unlock()
	beforeWait()
	<-ready
}

func (l *liveLock) release(excl bool) {
	l.mu.Lock()
	l.granted = l.q.Release(excl, l.granted[:0])
	for _, w := range l.granted {
		close(w.Who)
	}
	l.mu.Unlock()
}
