package lru

import "fmt"

// Ring is the dense-slot companion of Cache: a fixed population of slot
// indices 0..n-1 with a free-slot stack and the recency order of the live
// claims, so a full population reclaims its least recently claimed or
// touched resident first — LRU when the caller touches on use, FIFO when
// it does not. Nothing is keyed: a caller that already knows a resident's
// slot reaches its recency state by index, with no map probe on the way.
// The order is a generation-stamped ring: claiming, touching and
// releasing a slot bump its generation, so a ring record whose stamp no
// longer matches is a tombstone skipped on pop. The ring holds twice the
// slot count and compacts in place when full, so it never grows however
// often live claims are re-stamped; nothing on the claim/touch/release/
// reclaim path allocates.
//
// A Ring is bookkeeping only: what a slot holds, and what evicting it
// costs, belong to the caller.
type Ring struct {
	free []int32  // stack of free slots
	gen  []uint32 // per slot: bumped on every claim, touch and release
	ring []uint64 // packed (gen<<32 | slot) claim records, oldest first
	head int      // ring read position
	n    int      // ring records (live + tombstones)
	live int      // claims outstanding
	seen []int8   // Audit's per-slot tally
}

// NewRing builds a ring over slots 0..slots-1, all free. A non-positive
// count yields an empty ring on which every claim fails.
func NewRing(slots int) *Ring {
	if slots <= 0 {
		return &Ring{}
	}
	r := &Ring{free: make([]int32, slots), gen: make([]uint32, slots)}
	for j := range r.free {
		r.free[j] = int32(slots - 1 - j) // pop order: lowest slot first
	}
	r.ring = make([]uint64, max(2*slots, 4))
	return r
}

// Slots returns the population size.
func (r *Ring) Slots() int { return len(r.gen) }

// Free returns the number of unclaimed slots.
func (r *Ring) Free() int { return len(r.free) }

// Live returns the outstanding claims (reclaimable residents).
func (r *Ring) Live() int { return r.live }

// Audit checks the ring's invariants and names the first one broken:
// every slot is either free or holds exactly one current-generation
// record in the FIFO, never both and never neither; Live()+Free() ==
// Slots(); and the FIFO holds no more records, tombstones included, than
// its capacity of twice the slot count (minimum four). It reads the
// bookkeeping only, O(slots + records), and allocates only on its first
// call.
func (r *Ring) Audit() error {
	if r.live+len(r.free) != len(r.gen) {
		return fmt.Errorf("lru: ring audit: %d live + %d free claims over %d slots", r.live, len(r.free), len(r.gen))
	}
	if r.n > len(r.ring) {
		return fmt.Errorf("lru: ring audit: %d records in a ring of %d", r.n, len(r.ring))
	}
	if r.seen == nil {
		r.seen = make([]int8, len(r.gen))
	}
	for s := range r.seen {
		r.seen[s] = 0
	}
	for _, s := range r.free {
		r.seen[s]++
	}
	for i := 0; i < r.n; i++ {
		rec := r.ring[(r.head+i)%len(r.ring)]
		if s := int32(uint32(rec)); uint32(rec>>32) == r.gen[s] {
			r.seen[s]++
		}
	}
	// With every slot seen exactly once, the current records number
	// Slots()-Free() == Live().
	for s, k := range r.seen {
		if k != 1 {
			return fmt.Errorf("lru: ring audit: slot %d is free or has a current record %d times, want exactly once", s, k)
		}
	}
	return nil
}

// Claim takes a free slot — the one most recently released, else the
// lowest never claimed — and queues it as the newest resident. ok is
// false when none is free — the caller reclaims or gives up.
func (r *Ring) Claim() (slot int32, ok bool) {
	if len(r.free) == 0 {
		return 0, false
	}
	slot = r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.stamp(slot)
	return slot, true
}

// stamp gives slot a new generation and records it at the back of the
// FIFO.
func (r *Ring) stamp(slot int32) {
	r.gen[slot]++
	if r.n == len(r.ring) {
		r.compact()
	}
	r.ring[(r.head+r.n)%len(r.ring)] = uint64(r.gen[slot])<<32 | uint64(uint32(slot))
	r.n++
	r.live++
}

// Reclaim evicts the oldest live resident and immediately re-claims its
// slot for the caller. The caller owns dropping whatever the old
// resident was. ok is false when nothing is resident.
func (r *Ring) Reclaim() (slot int32, ok bool) {
	for r.n > 0 {
		rec := r.ring[r.head]
		r.head = (r.head + 1) % len(r.ring)
		r.n--
		slot = int32(uint32(rec))
		if uint32(rec>>32) != r.gen[slot] {
			continue // tombstone: released or re-stamped since
		}
		r.live--
		r.stamp(slot)
		return slot, true
	}
	return 0, false
}

// Touch makes a live claim the most recent one. Re-stamping is exact
// recency order, not an approximation: Reclaim always returns the live
// slot whose last Claim or Touch is oldest. The E18 cache tier relies on
// that for its main slots — touching on every hit, it evicts exactly the
// victims a linked-list LRU would — and touches its spill slots the same
// way so a hot victim is not dropped just because it was parked early.
// slot must be a live claim; one outside the population is ignored.
func (r *Ring) Touch(slot int32) {
	if slot < 0 || int(slot) >= len(r.gen) {
		return
	}
	// Re-stamping tombstones the old record and appends a fresh one.
	r.live--
	r.stamp(slot)
}

// Release undoes a claim, returning the slot to the free stack.
func (r *Ring) Release(slot int32) {
	r.gen[slot]++ // tombstone the FIFO record
	r.free = append(r.free, slot)
	r.live--
}

// compact drops tombstoned records: live records are repacked
// contiguously from head, preserving FIFO order (the write index trails
// the read index, so nothing unread is clobbered). Live claims are
// bounded by the slot count and the ring holds twice that, so after
// compaction there is always room.
func (r *Ring) compact() {
	w := 0
	for i := 0; i < r.n; i++ {
		rec := r.ring[(r.head+i)%len(r.ring)]
		if uint32(rec>>32) == r.gen[int32(uint32(rec))] {
			r.ring[(r.head+w)%len(r.ring)] = rec
			w++
		}
	}
	r.n = w
}
