package coopcache

import "testing"

// spillRegions4 builds two regions: node 0 with 4 slots at base 100,
// node 1 without a region.
func spillRegions4() *SpillRegions {
	return NewSpillRegions([]int32{100, 0}, []int32{4, 0})
}

func TestSpillClaimReleaseAccounting(t *testing.T) {
	sr := spillRegions4()
	if sr.regs[0].ring.Slots() != 4 || sr.Free(0) != 4 || sr.Live(0) != 0 {
		t.Fatalf("fresh region: slots=%d free=%d live=%d", sr.regs[0].ring.Slots(), sr.Free(0), sr.Live(0))
	}
	if sr.regs[1].ring.Slots() != 0 || sr.Free(1) != 0 {
		t.Fatalf("absent region reports slots=%d free=%d", sr.regs[1].ring.Slots(), sr.Free(1))
	}
	if _, ok := sr.Claim(1); ok {
		t.Fatal("claim on a region-less node succeeded")
	}
	got := make([]int32, 0, 4)
	for i := 0; i < 4; i++ {
		s, ok := sr.Claim(0)
		if !ok {
			t.Fatalf("claim %d failed with free slots remaining", i)
		}
		if s < 100 || s >= 104 {
			t.Fatalf("claim %d returned absolute slot %d outside region [100,104)", i, s)
		}
		got = append(got, s)
	}
	if sr.Free(0) != 0 || sr.Live(0) != 4 {
		t.Fatalf("after 4 claims: free=%d live=%d", sr.Free(0), sr.Live(0))
	}
	if _, ok := sr.Claim(0); ok {
		t.Fatal("claim on a full region succeeded")
	}
	sr.Release(0, got[2])
	if sr.Free(0) != 1 || sr.Live(0) != 3 {
		t.Fatalf("after release: free=%d live=%d", sr.Free(0), sr.Live(0))
	}
	if s, ok := sr.Claim(0); !ok || s != got[2] {
		t.Fatalf("re-claim returned %d ok=%v, want the released slot %d", s, ok, got[2])
	}
}

// Reclaim hands back residents strictly oldest-first, skipping slots
// whose claim records were tombstoned by a Release in between.
func TestSpillReclaimFIFOWithTombstones(t *testing.T) {
	sr := spillRegions4()
	s := make([]int32, 4)
	for i := range s {
		s[i], _ = sr.Claim(0)
	}
	// Drop the oldest resident out of band: its ring record is now a
	// tombstone and Reclaim must skip to the second-oldest.
	sr.Release(0, s[0])
	sr.Claim(0) // refill the freed slot; it is now the *newest* resident
	r1, ok := sr.Reclaim(0)
	if !ok || r1 != s[1] {
		t.Fatalf("first reclaim = %d ok=%v, want oldest live %d", r1, ok, s[1])
	}
	// The reclaimed slot was immediately re-claimed for the caller, so it
	// moved to the back of the FIFO; the next reclaim takes s[2].
	r2, ok := sr.Reclaim(0)
	if !ok || r2 != s[2] {
		t.Fatalf("second reclaim = %d ok=%v, want %d", r2, ok, s[2])
	}
	if sr.Live(0) != 4 {
		t.Fatalf("reclaim must keep occupancy: live=%d, want 4", sr.Live(0))
	}
	// Drain everything; reclaim on an empty region reports none.
	for i := 0; i < 4; i++ {
		if _, ok := sr.Reclaim(0); !ok {
			t.Fatalf("reclaim %d on a full region failed", i)
		}
	}
	sr2 := spillRegions4()
	if _, ok := sr2.Reclaim(0); ok {
		t.Fatal("reclaim on an empty region succeeded")
	}
}

// A churning claim/release/reclaim steady state stays allocation-free:
// the ring compacts in place instead of growing.
func TestSpillChurnAllocationFree(t *testing.T) {
	sr := spillRegions4()
	slots := make([]int32, 0, 4)
	for i := 0; i < 4; i++ {
		s, _ := sr.Claim(0)
		slots = append(slots, s)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		// Release one, claim it back, reclaim the oldest — the mix the
		// spill workers drive at steady state.
		sr.Release(0, slots[i%4])
		s, ok := sr.Claim(0)
		if !ok {
			t.Fatal("claim failed mid-churn")
		}
		slots[i%4] = s
		if _, ok := sr.Reclaim(0); !ok {
			t.Fatal("reclaim failed mid-churn")
		}
		i++
	})
	if avg > 0 {
		t.Fatalf("spill churn allocates %.1f per op, want 0", avg)
	}
}

func TestSpillTouchResetsReclaimOrder(t *testing.T) {
	sr := NewSpillRegions([]int32{10}, []int32{3})
	a, _ := sr.Claim(0)
	b, _ := sr.Claim(0)
	c, _ := sr.Claim(0)
	if a != 10 || b != 11 || c != 12 {
		t.Fatalf("claims = %d,%d,%d, want 10,11,12", a, b, c)
	}
	// Touching the oldest resident sends it to the back: reclaim order
	// becomes b, c, a instead of FIFO a, b, c.
	sr.Touch(0, a)
	if sr.Live(0) != 3 {
		t.Fatalf("touch changed live count: %d", sr.Live(0))
	}
	for i, want := range []int32{b, c, a} {
		got, ok := sr.Reclaim(0)
		if !ok || got != want {
			t.Fatalf("reclaim %d = %d,%v, want %d", i, got, ok, want)
		}
	}
	// Out-of-region slots are ignored.
	sr.Touch(0, 9)
	sr.Touch(0, 13)
	if sr.Live(0) != 3 {
		t.Fatalf("out-of-region touch changed live count: %d", sr.Live(0))
	}
}
