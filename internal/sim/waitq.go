package sim

// waitq is a FIFO of waiters whose backing storage is recycled: popped
// slots are zeroed and the head index advances instead of re-slicing, so
// the steady-state park/wake cycle of a primitive (queue length
// oscillating around a small value) performs no allocations after the
// backing array reaches its high-water mark. A plain `q = q[1:]` slice
// queue, by contrast, walks its backing array forward and forces append
// to reallocate on almost every cycle.
type waitq[T any] struct {
	items []T
	head  int
}

// len reports the number of queued waiters.
func (q *waitq[T]) len() int { return len(q.items) - q.head }

// push appends v at the tail, rewinding to the start of the backing
// array whenever the queue is empty.
func (q *waitq[T]) push(v T) {
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// pop removes and returns the head waiter. The vacated slot is zeroed so
// popped waiters are not retained by the queue.
func (q *waitq[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	return v
}

// peek returns the head waiter without removing it.
func (q *waitq[T]) peek() T { return q.items[q.head] }
