package lru

import "testing"

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
		if r.Queued() > 2*slots || r.Live() != slots {
			t.Fatalf("queued=%d live=%d, want <= %d and %d", r.Queued(), r.Live(), 2*slots, slots)
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

func TestRingEmpty(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.Claim(); ok {
		t.Fatal("claim on an empty ring succeeded")
	}
	if _, ok := r.Reclaim(); ok {
		t.Fatal("reclaim on an empty ring succeeded")
	}
	r.Touch(0)
	if r.Slots() != 0 || r.Free() != 0 || r.Live() != 0 || r.Queued() != 0 {
		t.Fatalf("empty ring reports slots=%d free=%d live=%d queued=%d", r.Slots(), r.Free(), r.Live(), r.Queued())
	}
}
