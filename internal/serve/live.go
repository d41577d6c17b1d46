package serve

import (
	"sync"

	"ngdc/internal/runtime"
)

// liveBackend is the real-goroutine implementation of the request
// surface: an in-memory key/value table and a table of fair
// shared/exclusive locks. Semantics mirror the simulated framework —
// FIFO grant order, shared cohorts granted in one burst (the N-CoSED
// behaviour), at most one hold per (connection, lock) — but nothing
// about its timing is deterministic.
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

// liveLock is a fair shared/exclusive lock: waiters queue FIFO, an
// exclusive grant goes to one waiter, and a run of shared waiters at
// the head is granted as one cohort.
type liveLock struct {
	mu      sync.Mutex
	shared  int  // current shared holders
	excl    bool // exclusively held?
	waiters []*liveWaiter
}

type liveWaiter struct {
	excl  bool
	ready chan struct{}
}

func (l *liveLock) grantableLocked(excl bool) bool {
	if len(l.waiters) > 0 {
		return false // fairness: queued waiters go first
	}
	if excl {
		return !l.excl && l.shared == 0
	}
	return !l.excl
}

func (l *liveLock) tryAcquire(excl bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.grantableLocked(excl) {
		return false
	}
	if excl {
		l.excl = true
	} else {
		l.shared++
	}
	return true
}

func (l *liveLock) acquire(excl bool, beforeWait func()) {
	l.mu.Lock()
	if l.grantableLocked(excl) {
		if excl {
			l.excl = true
		} else {
			l.shared++
		}
		l.mu.Unlock()
		return
	}
	w := &liveWaiter{excl: excl, ready: make(chan struct{})}
	l.waiters = append(l.waiters, w)
	l.mu.Unlock()
	beforeWait()
	<-w.ready
}

func (l *liveLock) release(excl bool) {
	l.mu.Lock()
	if excl {
		l.excl = false
	} else {
		l.shared--
	}
	l.grantHeadLocked()
	l.mu.Unlock()
}

// grantHeadLocked hands the lock to the head of the queue: one
// exclusive waiter, or the whole leading shared cohort in one burst.
func (l *liveLock) grantHeadLocked() {
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		if w.excl {
			if l.excl || l.shared > 0 {
				return
			}
			l.excl = true
			l.waiters = l.waiters[1:]
			close(w.ready)
			return
		}
		if l.excl {
			return
		}
		l.shared++
		l.waiters = l.waiters[1:]
		close(w.ready)
	}
}
