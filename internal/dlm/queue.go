package dlm

// Queue is the FIFO shared/exclusive lock discipline as a pure state
// machine: no clock, process, mutex or channel. The lock is held by one
// exclusive holder or by any number of shared holders. A request that
// cannot be granted waits behind every earlier one and is never
// overtaken; a release grants the head of the queue, either one
// exclusive request or the whole run of shared requests there.
//
// SRSL's home server keeps one per lock, and so does the live server's
// lock table. The zero value is a free lock with nobody waiting.
type Queue[T any] struct {
	shared  int  // shared holders
	excl    bool // held exclusively
	waiting []Waiter[T]
}

// Waiter is a queued request: who asked, and in which mode.
type Waiter[T any] struct {
	Who  T
	Excl bool
}

// free reports whether a request of the given mode is compatible with
// the current holders.
func (q *Queue[T]) free(excl bool) bool {
	return !q.excl && (!excl || q.shared == 0)
}

func (q *Queue[T]) take(excl bool) {
	if excl {
		q.excl = true
	} else {
		q.shared++
	}
}

// TryAcquire grants the lock in the given mode if the holders allow it
// and nobody is waiting, and reports whether it did. It never queues.
func (q *Queue[T]) TryAcquire(excl bool) bool {
	if len(q.waiting) > 0 || !q.free(excl) {
		return false
	}
	q.take(excl)
	return true
}

// Acquire grants the lock at once when TryAcquire would and reports
// true; otherwise it queues who behind every earlier request and
// reports false. The caller learns of a queued grant from Release.
func (q *Queue[T]) Acquire(who T, excl bool) bool {
	if q.TryAcquire(excl) {
		return true
	}
	q.waiting = append(q.waiting, Waiter[T]{Who: who, Excl: excl})
	return false
}

// Release drops one hold of the given mode, grants what the queue's head
// now allows, and appends those waiters to granted in grant order.
func (q *Queue[T]) Release(excl bool, granted []Waiter[T]) []Waiter[T] {
	if excl {
		q.excl = false
	} else {
		q.shared--
	}
	n := 0
	for ; n < len(q.waiting) && q.free(q.waiting[n].Excl); n++ {
		q.take(q.waiting[n].Excl)
	}
	granted = append(granted, q.waiting[:n]...)
	rest := copy(q.waiting, q.waiting[n:])
	clear(q.waiting[rest:])
	q.waiting = q.waiting[:rest]
	return granted
}
