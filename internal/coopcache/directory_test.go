package coopcache

import (
	"testing"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// dirEnv builds a 4-node network with a 2-shard directory on nodes 1-2
// and returns requester devices on nodes 0 and 3.
func dirEnv(t *testing.T, docs int) (*sim.Env, *Directory, *verbs.Device, *verbs.Device) {
	t.Helper()
	return dirEnvWith(t, docs, 1, 0)
}

// dirEnvWith is dirEnv with explicit buckets and slack positions per
// shard.
func dirEnvWith(t *testing.T, docs, perShard, slack int) (*sim.Env, *Directory, *verbs.Device, *verbs.Device) {
	t.Helper()
	env := sim.NewEnv(1)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	nodes := make([]*cluster.Node, 4)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 1<<24)
	}
	dir := newDirectory(nw, nodes[1:3], docs, perShard, slack)
	return env, dir, nw.Attach(nodes[0]), nw.Attach(nodes[3])
}

// redirect runs a spill demotion's redirect CAS of doc's word, old →
// new, with p parked once.
func redirect(p *sim.Proc, d *Directory, dev *verbs.Device, doc int, old, new Entry) (won bool, prev Entry, err error) {
	op := d.await(p, dirRedirect, dev, doc, old, new)
	won, prev, err = op.won, op.prev, op.err
	d.putOp(op)
	return won, prev, err
}

func TestEntryPacking(t *testing.T) {
	cases := []struct{ holder, slot int }{
		{0, 0}, {1, 0}, {0, 1}, {4095, 130000}, {1 << 30, 1 << 30},
	}
	for _, c := range cases {
		e := PackEntry(c.holder, c.slot)
		if e == 0 {
			t.Fatalf("PackEntry(%d,%d) = 0, collides with the empty word", c.holder, c.slot)
		}
		if e.Holder() != c.holder || e.Slot() != c.slot {
			t.Fatalf("PackEntry(%d,%d) round-trips to (%d,%d)", c.holder, c.slot, e.Holder(), e.Slot())
		}
	}
	// Same holder at a different slot is a different word — the ABA
	// protection eviction/invalidation relies on.
	if PackEntry(7, 3) == PackEntry(7, 4) {
		t.Fatal("slot bits do not disambiguate re-installs")
	}
}

// The slot stamp saturates instead of wrapping: a slot past the 32-bit
// stamp width must never alias a live low slot, or the exact-word CAS
// discipline reopens the ABA race it exists to close.
func TestEntryPackingWrapGuard(t *testing.T) {
	const wrapped = maxSlotStamp + 3 // would alias slot 3 under modular wrap
	if got := PackEntry(7, wrapped); got == PackEntry(7, 3) {
		t.Fatal("wrapped slot stamp aliases a live low slot")
	} else if got.Slot() != maxSlotStamp {
		t.Fatalf("oversized slot packs stamp %d, want saturation at %d", got.Slot(), maxSlotStamp)
	}
	// Saturated stamps only collide with each other — acceptable, since
	// no real slab has 2^32 slots.
	if PackEntry(7, maxSlotStamp) != PackEntry(7, maxSlotStamp+99) {
		t.Fatal("saturated stamps should collide with each other only")
	}
	for _, bad := range []struct {
		name         string
		holder, slot int
	}{
		{"negative holder", -1, 0},
		{"holder over stamp width", maxSlotStamp, 0},
		{"negative slot", 0, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PackEntry(%s) did not panic", bad.name)
				}
			}()
			PackEntry(bad.holder, bad.slot)
		}()
	}
}

// Wrap interleaving: a holder whose slot counter ran past the stamp
// width issues a stale clear carrying a saturated stamp — it must lose
// against the live low-slot entry, and the live word must survive.
func TestDirectoryWrapInterleaving(t *testing.T) {
	env, dir, dev, _ := dirEnv(t, 64)
	live := PackEntry(1, 3)
	stale := PackEntry(1, maxSlotStamp+3)
	env.Go("wrap", func(p *sim.Proc) {
		if won, err := dir.Publish(p, dev, 12, live); err != nil || !won {
			t.Fatalf("publish live: won=%v err=%v", won, err)
		}
		// The late invalidation from the wrapped-counter era arrives now.
		if cleared, err := dir.Clear(p, dev, 12, stale); err != nil || cleared {
			t.Errorf("stale saturated clear: cleared=%v err=%v, want false nil", cleared, err)
		}
		scratch := make([]byte, 8)
		if e, err := dir.Lookup(p, dev, 12, scratch); err != nil || e != live {
			t.Errorf("after stale clear entry = %x err=%v, want %x", e, err, live)
		}
		// And the genuine clear still lands.
		if cleared, err := dir.Clear(p, dev, 12, live); err != nil || !cleared {
			t.Errorf("live clear: cleared=%v err=%v", cleared, err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Lost CAS: of two concurrent publishers, exactly the first wins and the
// directory keeps its entry.
func TestDirectoryPublishLost(t *testing.T) {
	env, dir, devA, devB := dirEnv(t, 64)
	eA, eB := PackEntry(1, 5), PackEntry(2, 9)
	var wonA, wonB bool
	env.Go("a", func(p *sim.Proc) {
		var err error
		if wonA, err = dir.Publish(p, devA, 17, eA); err != nil {
			t.Error(err)
		}
	})
	env.Go("b", func(p *sim.Proc) {
		var err error
		if wonB, err = dir.Publish(p, devB, 17, eB); err != nil {
			t.Error(err)
		}
		scratch := make([]byte, 8)
		e, err := dir.Lookup(p, devB, 17, scratch)
		if err != nil {
			t.Error(err)
		}
		if wonA == wonB {
			t.Errorf("publish race: wonA=%v wonB=%v, want exactly one winner", wonA, wonB)
		}
		want := eA
		if wonB {
			want = eB
		}
		if e != want {
			t.Errorf("directory kept %x, want the winner's %x", e, want)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Clear-after-republish: a Clear carrying a stale observed word must
// lose against the republished entry.
func TestDirectoryClearAfterRepublish(t *testing.T) {
	env, dir, dev, _ := dirEnv(t, 64)
	e1, e2 := PackEntry(1, 0), PackEntry(1, 4) // same holder, new slot
	env.Go("seq", func(p *sim.Proc) {
		if won, err := dir.Publish(p, dev, 3, e1); err != nil || !won {
			t.Errorf("publish e1: won=%v err=%v", won, err)
		}
		if cleared, err := dir.Clear(p, dev, 3, e1); err != nil || !cleared {
			t.Errorf("clear e1: cleared=%v err=%v", cleared, err)
		}
		if won, err := dir.Publish(p, dev, 3, e2); err != nil || !won {
			t.Errorf("republish e2: won=%v err=%v", won, err)
		}
		// The stale invalidation arrives late: it must not take out e2.
		if cleared, err := dir.Clear(p, dev, 3, e1); err != nil || cleared {
			t.Errorf("stale clear: cleared=%v err=%v, want false nil", cleared, err)
		}
		scratch := make([]byte, 8)
		e, err := dir.Lookup(p, dev, 3, scratch)
		if err != nil || e != e2 {
			t.Errorf("after stale clear entry = %x err=%v, want %x", e, err, e2)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent clear: two invalidators racing on the same observed word —
// exactly one CAS succeeds.
func TestDirectoryConcurrentClear(t *testing.T) {
	env, dir, devA, devB := dirEnv(t, 64)
	e := PackEntry(2, 11)
	results := make(chan bool, 2)
	env.Go("seed", func(p *sim.Proc) {
		if won, err := dir.Publish(p, devA, 40, e); err != nil || !won {
			t.Errorf("seed publish: won=%v err=%v", won, err)
		}
		env.Go("clear-a", func(p *sim.Proc) {
			cleared, err := dir.Clear(p, devA, 40, e)
			if err != nil {
				t.Error(err)
			}
			results <- cleared
		})
		env.Go("clear-b", func(p *sim.Proc) {
			cleared, err := dir.Clear(p, devB, 40, e)
			if err != nil {
				t.Error(err)
			}
			results <- cleared
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	a, b := <-results, <-results
	if a == b {
		t.Fatalf("concurrent clears returned %v/%v, want exactly one success", a, b)
	}
}

// A redirect swings a word between two placements without passing through
// the empty state, loses cleanly against a stale observation, and
// reports a concurrent refresher's identical install via prev.
func TestDirectoryRedirect(t *testing.T) {
	env, dir, dev, _ := dirEnv(t, 64)
	old, spill := PackEntry(1, 2), PackEntry(2, 40)
	env.Go("redirect", func(p *sim.Proc) {
		scratch := make([]byte, 8)
		if won, err := dir.Publish(p, dev, 9, old); err != nil || !won {
			t.Fatalf("seed publish: won=%v err=%v", won, err)
		}
		won, prev, err := redirect(p, dir, dev, 9, old, spill)
		if err != nil || !won || prev != old {
			t.Fatalf("redirect: won=%v prev=%x err=%v, want win over %x", won, prev, err, old)
		}
		if e, err := dir.Lookup(p, dev, 9, scratch); err != nil || e != spill {
			t.Errorf("after redirect entry = %x err=%v, want %x", e, err, spill)
		}
		// A second demoter still carrying the pre-demotion word loses and
		// sees the spill entry it was about to install: prev == new tells
		// it a concurrent refresher already published the placement.
		won, prev, err = redirect(p, dir, dev, 9, old, spill)
		if err != nil || won || prev != spill {
			t.Errorf("stale redirect: won=%v prev=%x err=%v, want loss with prev=%x", won, prev, err, spill)
		}
		// The spill entry clears with its exact word, not the old one.
		if cleared, err := dir.Clear(p, dev, 9, old); err != nil || cleared {
			t.Errorf("clear with pre-redirect word: cleared=%v err=%v, want false", cleared, err)
		}
		if cleared, err := dir.Clear(p, dev, 9, spill); err != nil || !cleared {
			t.Errorf("clear spill word: cleared=%v err=%v", cleared, err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Several buckets per shard without any rebalance traffic behave exactly
// like one for the publish/lookup/clear/redirect lifecycle.
func TestDirectoryBucketedParity(t *testing.T) {
	env, dir, dev, _ := dirEnvWith(t, 64, 4, 4)
	env.Go("cycle", func(p *sim.Proc) {
		scratch := make([]byte, 8)
		for doc := 0; doc < 64; doc += 7 {
			e := PackEntry(doc%4, doc)
			if won, err := dir.Publish(p, dev, doc, e); err != nil || !won {
				t.Fatalf("doc %d publish: won=%v err=%v", doc, won, err)
			}
			if got, err := dir.Lookup(p, dev, doc, scratch); err != nil || got != e {
				t.Fatalf("doc %d lookup = %x err=%v, want %x", doc, got, err, e)
			}
			ne := PackEntry(3, doc+64)
			if won, _, err := redirect(p, dir, dev, doc, e, ne); err != nil || !won {
				t.Fatalf("doc %d redirect: won=%v err=%v", doc, won, err)
			}
			if cleared, err := dir.Clear(p, dev, doc, ne); err != nil || !cleared {
				t.Fatalf("doc %d clear: cleared=%v err=%v", doc, cleared, err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dir.Migrations() != 0 || dir.Splits() != 0 {
		t.Fatalf("idle bucketed directory ran %d migrations / %d splits", dir.Migrations(), dir.Splits())
	}
}

// A rebalance tick under skew spread across several buckets migrates the
// hottest bucket to the cold shard; entries published before the move
// stay resolvable and still clear with their exact words.
func TestDirectoryRebalanceMigrates(t *testing.T) {
	// 2 shards × 2 buckets: docs 0,4,8,… → bucket 0 (shard 0), docs
	// 2,6,10,… → bucket 2 (shard 0); odd docs land on shard 1.
	env, dir, dev, _ := dirEnvWith(t, 64, 2, 2)
	e0, e2 := PackEntry(1, 10), PackEntry(1, 11)
	env.Go("drive", func(p *sim.Proc) {
		scratch := make([]byte, 8)
		if won, err := dir.Publish(p, dev, 0, e0); err != nil || !won {
			t.Fatalf("publish doc 0: won=%v err=%v", won, err)
		}
		if won, err := dir.Publish(p, dev, 2, e2); err != nil || !won {
			t.Fatalf("publish doc 2: won=%v err=%v", won, err)
		}
		// Even skew across shard 0's two buckets: max = 2×mean, but no
		// single bucket dominates, so the tick migrates rather than splits.
		for i := 0; i < 16; i++ {
			if _, err := dir.Lookup(p, dev, 0, scratch); err != nil {
				t.Fatal(err)
			}
			if _, err := dir.Lookup(p, dev, 2, scratch); err != nil {
				t.Fatal(err)
			}
		}
		before := dir.HomeShard(0)
		if err := dir.RebalanceTick(p, dev); err != nil {
			t.Fatal(err)
		}
		if dir.Migrations() != 1 || dir.Splits() != 0 {
			t.Fatalf("tick ran %d migrations / %d splits, want 1 / 0", dir.Migrations(), dir.Splits())
		}
		if after := dir.HomeShard(0); after == before {
			t.Fatalf("bucket 0 still homed on shard %d after migration", after)
		}
		// The drained word still resolves at its new home and clears with
		// the exact pre-migration entry.
		if got, err := dir.Lookup(p, dev, 0, scratch); err != nil || got != e0 {
			t.Errorf("post-migration lookup = %x err=%v, want %x", got, err, e0)
		}
		if cleared, err := dir.Clear(p, dev, 0, e0); err != nil || !cleared {
			t.Errorf("post-migration clear: cleared=%v err=%v", cleared, err)
		}
		if got, err := dir.Lookup(p, dev, 2, scratch); err != nil || got != e2 {
			t.Errorf("unmigrated doc 2 lookup = %x err=%v, want %x", got, err, e2)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Audit: no document may keep two live primary placements.
	seen := map[int]int{}
	dir.DebugPlacements(func(doc int, e Entry, replica bool) {
		if !replica {
			seen[doc]++
		}
	})
	for doc, n := range seen {
		if n > 1 {
			t.Errorf("doc %d has %d primary placements after migration", doc, n)
		}
	}
}

// A single dominant bucket splits instead: a replica host starts serving
// reads for some requesters, and publishes/clears fan out to it.
func TestDirectoryRebalanceSplits(t *testing.T) {
	env, dir, devA, devB := dirEnvWith(t, 64, 2, 2)
	e := PackEntry(1, 10)
	env.Go("drive", func(p *sim.Proc) {
		scratch := make([]byte, 8)
		if won, err := dir.Publish(p, devA, 0, e); err != nil || !won {
			t.Fatalf("publish doc 0: won=%v err=%v", won, err)
		}
		// All the heat on bucket 0: even a fair split of its load would
		// exceed the mean, so the tick replicates rather than migrates.
		for i := 0; i < 32; i++ {
			if _, err := dir.Lookup(p, devA, 0, scratch); err != nil {
				t.Fatal(err)
			}
		}
		if err := dir.RebalanceTick(p, devA); err != nil {
			t.Fatal(err)
		}
		if dir.Splits() != 1 || dir.Migrations() != 0 {
			t.Fatalf("tick ran %d splits / %d migrations, want 1 / 0", dir.Splits(), dir.Migrations())
		}
		// Requesters on both sides of the replica-picking hash see the
		// seeded copy (devA is node 0 → primary, devB node 3 → replica).
		if got, err := dir.Lookup(p, devA, 0, scratch); err != nil || got != e {
			t.Errorf("primary-side lookup = %x err=%v, want %x", got, err, e)
		}
		if got, err := dir.Lookup(p, devB, 0, scratch); err != nil || got != e {
			t.Errorf("replica-side lookup = %x err=%v, want %x", got, err, e)
		}
		// A fresh publish into the split bucket reaches both copies…
		e4 := PackEntry(2, 7)
		if won, err := dir.Publish(p, devA, 4, e4); err != nil || !won {
			t.Fatalf("publish doc 4: won=%v err=%v", won, err)
		}
		if got, err := dir.Lookup(p, devB, 4, scratch); err != nil || got != e4 {
			t.Errorf("replica-side lookup of fresh publish = %x err=%v, want %x", got, err, e4)
		}
		// …and a clear scrubs both, so no replica serves a dead placement.
		if cleared, err := dir.Clear(p, devA, 4, e4); err != nil || !cleared {
			t.Fatalf("clear doc 4: cleared=%v err=%v", cleared, err)
		}
		if got, err := dir.Lookup(p, devB, 4, scratch); err != nil || got != 0 {
			t.Errorf("replica-side lookup after clear = %x err=%v, want empty", got, err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Publishing into a cleared word succeeds again — the full
// evict→invalidate→reinstall cycle.
func TestDirectoryReinstallCycle(t *testing.T) {
	env, dir, dev, _ := dirEnv(t, 8)
	env.Go("cycle", func(p *sim.Proc) {
		scratch := make([]byte, 8)
		for round := 0; round < 3; round++ {
			e := PackEntry(round, round*2)
			if won, err := dir.Publish(p, dev, 5, e); err != nil || !won {
				t.Errorf("round %d publish: won=%v err=%v", round, won, err)
			}
			got, err := dir.Lookup(p, dev, 5, scratch)
			if err != nil || got != e {
				t.Errorf("round %d lookup = %x err=%v, want %x", round, got, err, e)
			}
			if cleared, err := dir.Clear(p, dev, 5, e); err != nil || !cleared {
				t.Errorf("round %d clear: cleared=%v err=%v", round, cleared, err)
			}
			if got, err := dir.Lookup(p, dev, 5, scratch); err != nil || got != 0 {
				t.Errorf("round %d post-clear lookup = %x err=%v, want empty", round, got, err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
