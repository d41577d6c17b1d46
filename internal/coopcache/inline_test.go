package coopcache

import (
	"fmt"
	"testing"
	"time"

	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// TestDirectoryInlineRefusal: a publish, clear or redirect whose first
// CAS fails Device.Issue's validation — a document past the working set,
// whose word lies beyond its shard's region — returns that CAS's error at
// the call instant, as the blocking CAS did: no park, no event, and no
// Continue from the calling process.
func TestDirectoryInlineRefusal(t *testing.T) {
	env, dir, dev, _ := dirEnv(t, 64) // 2 shards of 32 words
	defer env.Shutdown()
	const doc = 200 // word 100 of shard 0
	e, ne := PackEntry(1, 1), PackEntry(2, 2)
	env.Go("w", func(p *sim.Proc) {
		shard := dir.shards[dir.HomeShard(doc)]
		want := fmt.Sprintf("verbs: cas on node %d key %d: bad atomic offset", shard.Node, shard.Key)
		ops := []struct {
			name string
			run  func() (bool, Entry, error)
		}{
			{"publish", func() (bool, Entry, error) { won, err := dir.Publish(p, dev, doc, e); return won, 0, err }},
			{"clear", func() (bool, Entry, error) { cleared, err := dir.Clear(p, dev, doc, e); return cleared, 0, err }},
			{"redirect", func() (bool, Entry, error) { return redirect(p, dir, dev, doc, e, ne) }},
		}
		for _, op := range ops {
			before := env.Stats()
			won, prev, err := op.run()
			if won || prev != 0 || err == nil || err.Error() != want {
				t.Errorf("%s: won=%v prev=%#x err=%v, want false 0 %s", op.name, won, uint64(prev), err, want)
			}
			if st := env.Stats(); st != before || p.Now() != 0 {
				t.Errorf("%s: an inline refusal cost %+v → %+v, at %v", op.name, before, st, p.Now())
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTierInstallInlineRefusal: an install whose slab write fails
// Device.Issue's validation — the holder's slab reached through an rkey
// its node never registered — ends with the write's error at the call
// instant, having claimed the slot at its decision instant, without
// parking its caller.
func TestTierInstallInlineRefusal(t *testing.T) {
	c := newGetCell(t, TierOptions{}, nil)
	tier := c.tier
	bogus := verbs.RemoteAddr{Node: tier.devs[0].Node.ID, Key: 1 << 30}
	c.env.Go("w", func(p *sim.Proc) {
		tier.slabs[0] = bogus
		before := c.env.Stats()
		err := newWaiter().install(p, tier, c.fes[0], docHot, make([]byte, TierDocBytes))
		want := fmt.Sprintf("verbs: write on node %d key %d: invalid rkey", bogus.Node, bogus.Key)
		if err == nil || err.Error() != want {
			t.Errorf("install returned %v, want %s", err, want)
		}
		if st := c.env.Stats(); st != before || p.Now() != 0 {
			t.Errorf("an inline refusal cost %+v → %+v, at %v", before, st, p.Now())
		}
		if tier.docNode[docHot] != 0 || tier.docSlot[docHot] != 0 || c.word(docHot) != 0 {
			t.Errorf("placement (%d,%d), word %#x: want the slot claimed and nothing published",
				tier.docNode[docHot], tier.docSlot[docHot], uint64(c.word(docHot)))
		}
	})
	if err := c.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDemotionSkipsToTheNextJob: a demotion job whose victim was
// re-installed at the very placement it was evicted from issues nothing,
// and the node's chain starts the next queued job at once — in the same
// event, by a recursion the queue's depth bounds. A full queue of such
// jobs ahead of one real demotion costs that demotion's events and no
// more: the start event, the spill write's two and the redirect CAS's
// two.
func TestDemotionSkipsToTheNextJob(t *testing.T) {
	c := newGetCell(t, TierOptions{Spill: true}, nil)
	tier := c.tier
	var got struct {
		events uint64
		stats  TierStats
	}
	c.env.Go("w", func(p *sim.Proc) {
		var scr TierScratch
		if err := c.request(p, 0, docHot, make([]byte, TierDocBytes), &scr); err != nil {
			t.Fatal(err)
		}
		s := tier.docSlot[docHot] // docHot lives at (0, s): a job for it there is a no-op
		for i := 0; i < spillQueueDepth-1; i++ {
			if !tier.enqueueSpill(0, int32(docHot), s) {
				t.Fatalf("queue refused job %d", i)
			}
		}
		// docRival holds no placement and no word: its demotion claims a
		// spill slot, writes it and loses the redirect.
		if !tier.enqueueSpill(0, int32(docRival), s) {
			t.Fatal("queue refused the real job")
		}
		if tier.enqueueSpill(0, int32(docRival), s) {
			t.Fatal("a full queue took another job")
		}
		before := c.env.Stats()
		p.Sleep(100 * time.Microsecond)
		// The sleep's own wake is one more event.
		got.events = c.env.Stats().EventsProcessed - before.EventsProcessed - 1
		got.stats = tier.Stats()
	})
	if err := c.env.Run(); err != nil {
		t.Fatal(err)
	}
	if got.events != 5 {
		t.Errorf("the queue cost %d events, want 5", got.events)
	}
	st := got.stats
	if st.SpillRedirectLost != 1 || st.Spills != 0 || st.SpillDrops != 1 || st.Invalidations != 0 {
		t.Errorf("stats %+v: want one lost redirect, one refused job, no spill and no invalidation", st)
	}
	if n := tier.docNode[docHot]; n != 0 || tier.docNode[docRival] != -1 {
		t.Errorf("docHot on node %d, docRival on %d: want 0 and none", n, tier.docNode[docRival])
	}
	if err := tier.Audit(); err != nil {
		t.Error(err)
	}
}
