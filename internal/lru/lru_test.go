package lru

import (
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	c := New[int](100)
	if ev := c.Put(1, 40); len(ev) != 0 {
		t.Fatal("eviction on empty cache")
	}
	c.Put(2, 40)
	if !c.Get(1) || !c.Get(2) || c.Get(3) {
		t.Fatal("presence wrong")
	}
	ev := c.Put(3, 40) // LRU is 1 after the Gets above
	if len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1]", ev)
	}
	if c.Used() != 80 || c.Len() != 2 || c.Free() != 20 || c.Cap() != 100 {
		t.Fatalf("accounting: used=%d len=%d", c.Used(), c.Len())
	}
}

func TestOversizedNotCached(t *testing.T) {
	c := New[string](100)
	c.Put("a", 50)
	if ev := c.Put("big", 200); ev != nil {
		t.Fatalf("oversized insert evicted %v", ev)
	}
	if c.Contains("big") || !c.Contains("a") {
		t.Fatal("oversized entry cached or victim lost")
	}
}

func TestResizeInPlace(t *testing.T) {
	c := New[int](100)
	c.Put(1, 30)
	c.Put(2, 30)
	c.Put(1, 80)
	if c.Contains(2) || c.Used() != 80 {
		t.Fatalf("resize handling wrong: used=%d", c.Used())
	}
}

func TestRemoveAndClear(t *testing.T) {
	c := New[int](100)
	c.Put(1, 30)
	c.Put(2, 30)
	if !c.Remove(1) || c.Remove(1) {
		t.Fatal("remove semantics wrong")
	}
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 || c.Contains(2) {
		t.Fatal("clear incomplete")
	}
	// Usable after clear.
	c.Put(3, 10)
	if !c.Contains(3) {
		t.Fatal("cache unusable after clear")
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := New[int](100)
	c.Put(1, 10)
	c.Put(2, 10)
	c.Put(3, 10)
	c.Get(1)
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 2 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestStructKeys(t *testing.T) {
	type pk struct{ a, b int }
	c := New[pk](10)
	c.Put(pk{1, 2}, 5)
	if !c.Contains(pk{1, 2}) || c.Contains(pk{2, 1}) {
		t.Fatal("struct keys broken")
	}
}

// Property: accounting invariants hold under arbitrary op sequences.
func TestPropertyInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New[int](1000)
		shadow := map[int]int64{}
		for _, op := range ops {
			key := int(op % 50)
			switch (op / 50) % 3 {
			case 0:
				size := int64(op%400) + 1
				for _, ev := range c.Put(key, size) {
					delete(shadow, ev)
				}
				shadow[key] = size
			case 1:
				if c.Get(key) != (shadow[key] != 0) {
					return false
				}
			case 2:
				if c.Remove(key) != (shadow[key] != 0) {
					return false
				}
				delete(shadow, key)
			}
			var want int64
			for _, s := range shadow {
				want += s
			}
			if c.Used() != want || c.Used() > 1000 || c.Len() != len(shadow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Regression for the resize-beyond-capacity edge: growing a resident
// entry past the whole cache must evict it (returning its key), not
// silently keep the stale-sized entry resident.
func TestOversizedResizeEvicts(t *testing.T) {
	c := New[string](100)
	c.Put("a", 50)
	c.Put("b", 30)
	ev := c.Put("a", 200)
	if len(ev) != 1 || ev[0] != "a" {
		t.Fatalf("oversized resize evicted %v, want [a]", ev)
	}
	if c.Contains("a") {
		t.Fatal("entry resized beyond capacity stayed resident")
	}
	if !c.Contains("b") || c.Used() != 30 || c.Len() != 1 {
		t.Fatalf("collateral damage: len=%d used=%d", c.Len(), c.Used())
	}
	// A fresh oversized insert is still a silent no-op.
	if ev := c.Put("big", 200); ev != nil {
		t.Fatalf("fresh oversized insert evicted %v", ev)
	}
}

// PutInto appends to the caller's scratch instead of allocating.
func TestPutIntoReusesScratch(t *testing.T) {
	c := New[int](20)
	scratch := make([]int, 0, 4)
	c.PutInto(1, 10, scratch[:0])
	c.PutInto(2, 10, scratch[:0])
	out := c.PutInto(3, 10, scratch[:0])
	if len(out) != 1 || out[0] != 1 {
		t.Fatalf("evicted %v, want [1]", out)
	}
	if &out[0] != &scratch[:1][0] {
		t.Fatal("PutInto did not reuse the caller's scratch backing array")
	}
}

// The churning steady state — every insert evicting the LRU entry, keys
// cycling through a window — allocates nothing per operation once the
// free list is primed.
func TestChurnAllocationFree(t *testing.T) {
	c := New[int](64)
	for k := 0; k < 64; k++ {
		c.Put(k, 1)
	}
	scratch := make([]int, 0, 4)
	next := 64
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			scratch = c.PutInto(next%4096, 1, scratch[:0])
			c.Get((next - 7) % 4096)
			next++
		}
	})
	if allocs != 0 {
		t.Fatalf("churn allocates %.1f per step, want 0", allocs)
	}
}

// Property: eviction order matches a reference LRU and used ≤ cap holds
// throughout arbitrary churn (satellite of the capacity-bounded cache
// tier: the dc-scale slabs lean on exactly this contract).
func TestPropertyEvictionOrder(t *testing.T) {
	f := func(ops []uint16) bool {
		const capacity = 300
		c := New[int](capacity)
		type entry struct {
			key  int
			size int64
		}
		var ref []entry // index 0 = LRU, last = MRU
		find := func(key int) int {
			for i, e := range ref {
				if e.key == key {
					return i
				}
			}
			return -1
		}
		scratch := make([]int, 0, 8)
		for _, op := range ops {
			key := int(op % 40)
			switch (op / 40) % 2 {
			case 0:
				size := int64(op%120) + 1
				got := c.PutInto(key, size, scratch[:0])
				// Reference: resize-or-insert at MRU, then evict from
				// the LRU end while over capacity.
				if i := find(key); i >= 0 {
					ref = append(ref[:i], ref[i+1:]...)
				}
				ref = append(ref, entry{key, size})
				var want []int
				used := int64(0)
				for _, e := range ref {
					used += e.size
				}
				for used > capacity {
					want = append(want, ref[0].key)
					used -= ref[0].size
					ref = ref[1:]
				}
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
			case 1:
				if c.Get(key) != (find(key) >= 0) {
					return false
				}
				if i := find(key); i >= 0 {
					e := ref[i]
					ref = append(ref[:i], ref[i+1:]...)
					ref = append(ref, e)
				}
			}
			if c.Used() > capacity || c.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
