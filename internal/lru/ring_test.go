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
