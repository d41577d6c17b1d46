package sim

// Queue is a FIFO whose backing storage is recycled: popped slots are
// zeroed and the head index advances instead of re-slicing, so a queue
// whose length oscillates around a small value (the park/wake cycle of a
// primitive, the in-flight deliveries of a connection) performs no
// allocations after the backing array reaches its high-water mark. A
// plain `q = q[1:]` slice queue, by contrast, walks its backing array
// forward and forces append to reallocate on almost every cycle. The
// zero value is an empty queue.
type Queue[T any] struct {
	items []T
	head  int
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail, rewinding to the start of the backing
// array whenever the queue is empty.
func (q *Queue[T]) Push(v T) {
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the head item. The vacated slot is zeroed so
// popped items are not retained by the queue.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	return v
}

// peek returns the head item without removing it.
func (q *Queue[T]) peek() T { return q.items[q.head] }
