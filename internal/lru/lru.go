// Package lru provides the recency bookkeeping of the caching services.
// Cache is a byte-capacity LRU over arbitrary keys and entry sizes
// (cooperative caching, the remote-memory file cache's local tier, the
// integrated evaluation); Ring (ring.go) is the same order over a fixed
// population of dense, uniform slots (the datacenter-at-scale cache
// tier's main and spill slots, the file cache's victim tier). Only
// metadata is tracked: the serving pipelines charge transfer costs by
// size, payload bytes are synthetic. Cache entry nodes are recycled
// through a free list, so a churning steady state (insert evicting an
// older entry on every miss) allocates nothing per operation.
package lru

// Cache is a byte-capacity LRU over keys of type K.
type Cache[K comparable] struct {
	cap   int64
	used  int64
	items map[K]*node[K]
	head  *node[K] // most recently used
	tail  *node[K] // least recently used
	free  *node[K] // recycled nodes, chained through next
}

type node[K comparable] struct {
	key        K
	size       int64
	prev, next *node[K]
}

// New creates a cache holding up to capacity bytes.
func New[K comparable](capacity int64) *Cache[K] {
	return &Cache[K]{cap: capacity, items: map[K]*node[K]{}}
}

// Len returns the number of cached entries.
func (c *Cache[K]) Len() int { return len(c.items) }

// Free returns the remaining capacity.
func (c *Cache[K]) Free() int64 { return c.cap - c.used }

// Contains reports presence without touching recency.
func (c *Cache[K]) Contains(key K) bool {
	_, ok := c.items[key]
	return ok
}

// Get reports presence and marks the entry most recently used.
func (c *Cache[K]) Get(key K) bool {
	n, ok := c.items[key]
	if !ok {
		return false
	}
	c.moveToFront(n)
	return true
}

// Put inserts (or resizes) an entry, evicting LRU entries to make room,
// and returns the evicted keys. Entries larger than the whole cache are
// not cached: a fresh oversized insert is a no-op (nil return, nothing
// evicted), and resizing a resident entry beyond the capacity evicts it
// (its own key is returned) — the entry cannot stay resident at a size
// the cache could never admit.
func (c *Cache[K]) Put(key K, size int64) (evicted []K) {
	return c.PutInto(key, size, nil)
}

// PutInto is Put appending the evicted keys to a caller-owned slice, so
// a churning request loop can reuse one scratch buffer instead of
// allocating a result slice per eviction.
func (c *Cache[K]) PutInto(key K, size int64, evicted []K) []K {
	if size > c.cap {
		if n, ok := c.items[key]; ok {
			c.unlink(n)
			delete(c.items, key)
			c.used -= n.size
			c.recycle(n)
			evicted = append(evicted, key)
		}
		return evicted
	}
	if n, ok := c.items[key]; ok {
		c.used += size - n.size
		n.size = size
		c.moveToFront(n)
		return c.evictOverflow(evicted)
	}
	n := c.newNode(key, size)
	c.items[key] = n
	c.pushFront(n)
	c.used += size
	return c.evictOverflow(evicted)
}

func (c *Cache[K]) evictOverflow(out []K) []K {
	for c.used > c.cap && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.items, victim.key)
		c.used -= victim.size
		out = append(out, victim.key)
		c.recycle(victim)
	}
	return out
}

// Remove deletes an entry, reporting whether it was present.
func (c *Cache[K]) Remove(key K) bool {
	n, ok := c.items[key]
	if !ok {
		return false
	}
	c.unlink(n)
	delete(c.items, key)
	c.used -= n.size
	c.recycle(n)
	return true
}

// Clear drops every entry. The dropped nodes feed the free list, so a
// cache that clears and refills reuses its old storage.
func (c *Cache[K]) Clear() {
	for n := c.head; n != nil; {
		next := n.next
		c.recycle(n)
		n = next
	}
	c.items = map[K]*node[K]{}
	c.head, c.tail = nil, nil
	c.used = 0
}

// Keys returns the cached keys, most recently used first.
func (c *Cache[K]) Keys() []K {
	out := make([]K, 0, len(c.items))
	for n := c.head; n != nil; n = n.next {
		out = append(out, n.key)
	}
	return out
}

// newNode pops a recycled node or allocates the cache's first of this
// depth.
func (c *Cache[K]) newNode(key K, size int64) *node[K] {
	if n := c.free; n != nil {
		c.free = n.next
		n.key, n.size, n.prev, n.next = key, size, nil, nil
		return n
	}
	return &node[K]{key: key, size: size}
}

// recycle parks an unlinked node on the free list. The key is zeroed so
// pointer-typed keys don't pin their referents.
func (c *Cache[K]) recycle(n *node[K]) {
	var zero K
	n.key, n.size, n.prev = zero, 0, nil
	n.next = c.free
	c.free = n
}

func (c *Cache[K]) pushFront(n *node[K]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache[K]) unlink(n *node[K]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache[K]) moveToFront(n *node[K]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
