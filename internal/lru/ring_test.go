package lru

import (
	"math/rand"
	"testing"
)

// Touch churn re-stamps live claims far more often than the ring has
// room for: compaction must keep the record count within twice the slot
// count, allocate nothing, and leave the oldest-untouched-first order
// intact.
func TestRingTouchChurnStaysBoundedAndOrdered(t *testing.T) {
	const slots = 8
	r := NewRing(slots)
	for i := 0; i < slots; i++ {
		if s, ok := r.Claim(); !ok || s != int32(i) {
			t.Fatalf("claim %d = %d,%v", i, s, ok)
		}
	}
	if _, ok := r.Claim(); ok {
		t.Fatal("claim on a full ring succeeded")
	}
	avg := testing.AllocsPerRun(100, func() {
		// Slot 0 is never touched; every other slot is, in index order.
		for s := int32(1); s < slots; s++ {
			r.Touch(s)
		}
		if err := r.Audit(); err != nil || r.Live() != slots {
			t.Fatalf("live=%d, want %d: %v", r.Live(), slots, err)
		}
	})
	if avg > 0 {
		t.Fatalf("touch churn allocates %.1f per round, want 0", avg)
	}
	for want := int32(0); want < slots; want++ {
		if got, ok := r.Reclaim(); !ok || got != want {
			t.Fatalf("reclaim = %d,%v, want %d", got, ok, want)
		}
	}
}

// A Ring driven the way the E18 tier drives its main slots — touch a
// resident on use, claim a free slot or reclaim the oldest for a
// newcomer, release on invalidation — evicts exactly the keys a Cache of
// the same capacity evicts, in a random schedule of all three.
func TestRingEvictsWhatCacheEvicts(t *testing.T) {
	const slots, keys, size = 6, 20, 2048
	rng := rand.New(rand.NewSource(1))
	r, c := NewRing(slots), New[int](slots*size)
	slotOf := map[int]int32{} // resident key → its slot
	keyAt := map[int32]int{}  // slot → resident key
	for step := 0; step < 5000; step++ {
		k := rng.Intn(keys)
		s, resident := slotOf[k]
		switch {
		case resident && rng.Intn(4) == 0:
			r.Release(s)
			delete(slotOf, k)
			delete(keyAt, s)
			if !c.Remove(k) {
				t.Fatalf("step %d: key %d is in the ring and not in the cache", step, k)
			}
		case resident:
			r.Touch(s)
			c.Get(k)
		default:
			evicted := c.Put(k, size)
			s, ok := r.Claim()
			if !ok {
				s, ok = r.Reclaim()
				victim := keyAt[s]
				if !ok || len(evicted) != 1 || evicted[0] != victim {
					t.Fatalf("step %d: ring reclaimed key %d (ok=%v), cache evicted %v", step, victim, ok, evicted)
				}
				delete(slotOf, victim)
			} else if len(evicted) != 0 {
				t.Fatalf("step %d: ring had a free slot, cache evicted %v", step, evicted)
			}
			slotOf[k], keyAt[s] = s, k
		}
		if r.Live() != c.Len() || r.Live()+r.Free() != slots {
			t.Fatalf("step %d: live=%d free=%d, cache holds %d of %d", step, r.Live(), r.Free(), c.Len(), slots)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.Claim(); ok {
		t.Fatal("claim on an empty ring succeeded")
	}
	if _, ok := r.Reclaim(); ok {
		t.Fatal("reclaim on an empty ring succeeded")
	}
	r.Touch(0)
	if err := r.Audit(); err != nil || r.Slots() != 0 || r.Free() != 0 || r.Live() != 0 {
		t.Fatalf("empty ring reports slots=%d free=%d live=%d: %v", r.Slots(), r.Free(), r.Live(), err)
	}
}

func TestRingClaimReleaseAccounting(t *testing.T) {
	r := NewRing(4)
	if r.Slots() != 4 || r.Free() != 4 || r.Live() != 0 {
		t.Fatalf("fresh ring: slots=%d free=%d live=%d", r.Slots(), r.Free(), r.Live())
	}
	got := make([]int32, 0, 4)
	for i := 0; i < 4; i++ {
		s, ok := r.Claim()
		if !ok {
			t.Fatalf("claim %d failed with free slots remaining", i)
		}
		if s < 0 || s >= 4 {
			t.Fatalf("claim %d returned slot %d outside [0,4)", i, s)
		}
		got = append(got, s)
	}
	if r.Free() != 0 || r.Live() != 4 {
		t.Fatalf("after 4 claims: free=%d live=%d", r.Free(), r.Live())
	}
	if _, ok := r.Claim(); ok {
		t.Fatal("claim on a full ring succeeded")
	}
	r.Release(got[2])
	if r.Free() != 1 || r.Live() != 3 {
		t.Fatalf("after release: free=%d live=%d", r.Free(), r.Live())
	}
	if s, ok := r.Claim(); !ok || s != got[2] {
		t.Fatalf("re-claim returned %d ok=%v, want the released slot %d", s, ok, got[2])
	}
}

// Reclaim hands back residents strictly oldest-first, skipping slots
// whose claim records were tombstoned by a Release in between.
func TestRingReclaimFIFOWithTombstones(t *testing.T) {
	r := NewRing(4)
	s := make([]int32, 4)
	for i := range s {
		s[i], _ = r.Claim()
	}
	// Drop the oldest resident out of band: its ring record is now a
	// tombstone and Reclaim must skip to the second-oldest.
	r.Release(s[0])
	r.Claim() // refill the freed slot; it is now the *newest* resident
	r1, ok := r.Reclaim()
	if !ok || r1 != s[1] {
		t.Fatalf("first reclaim = %d ok=%v, want oldest live %d", r1, ok, s[1])
	}
	// The reclaimed slot was immediately re-claimed for the caller, so it
	// moved to the back of the FIFO; the next reclaim takes s[2].
	r2, ok := r.Reclaim()
	if !ok || r2 != s[2] {
		t.Fatalf("second reclaim = %d ok=%v, want %d", r2, ok, s[2])
	}
	if r.Live() != 4 {
		t.Fatalf("reclaim must keep occupancy: live=%d, want 4", r.Live())
	}
	for i := 0; i < 4; i++ {
		if _, ok := r.Reclaim(); !ok {
			t.Fatalf("reclaim %d on a full ring failed", i)
		}
	}
	if _, ok := NewRing(4).Reclaim(); ok {
		t.Fatal("reclaim on a ring with no claim succeeded")
	}
}

// A churning claim/release/reclaim steady state stays allocation-free:
// the ring compacts in place instead of growing.
func TestRingChurnAllocationFree(t *testing.T) {
	r := NewRing(4)
	slots := make([]int32, 0, 4)
	for i := 0; i < 4; i++ {
		s, _ := r.Claim()
		slots = append(slots, s)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		// Release one, claim it back, reclaim the oldest — the mix the
		// E18 tier's demotions drive on a spill region at steady state.
		r.Release(slots[i%4])
		s, ok := r.Claim()
		if !ok {
			t.Fatal("claim failed mid-churn")
		}
		slots[i%4] = s
		if _, ok := r.Reclaim(); !ok {
			t.Fatal("reclaim failed mid-churn")
		}
		i++
	})
	if avg > 0 {
		t.Fatalf("ring churn allocates %.1f per op, want 0", avg)
	}
}

func TestRingTouchResetsReclaimOrder(t *testing.T) {
	r := NewRing(3)
	a, _ := r.Claim()
	b, _ := r.Claim()
	c, _ := r.Claim()
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("claims = %d,%d,%d, want 0,1,2", a, b, c)
	}
	// Touching the oldest resident sends it to the back: reclaim order
	// becomes b, c, a instead of FIFO a, b, c.
	r.Touch(a)
	if r.Live() != 3 {
		t.Fatalf("touch changed live count: %d", r.Live())
	}
	for i, want := range []int32{b, c, a} {
		got, ok := r.Reclaim()
		if !ok || got != want {
			t.Fatalf("reclaim %d = %d,%v, want %d", i, got, ok, want)
		}
	}
	// Slots outside the population are ignored.
	r.Touch(-1)
	r.Touch(3)
	if r.Live() != 3 {
		t.Fatalf("out-of-population touch changed live count: %d", r.Live())
	}
}
