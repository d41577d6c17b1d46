package cluster

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ngdc/internal/sim"
)

func TestExecQueuesFIFO(t *testing.T) {
	env := sim.NewEnv(1)
	n := NewNode(env, 0, 1, 1<<20)
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			n.Exec(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []sim.Time{
		sim.Time(10 * time.Millisecond),
		sim.Time(20 * time.Millisecond),
		sim.Time(30 * time.Millisecond),
	} {
		if finish[i] != want {
			t.Fatalf("finish = %v", finish)
		}
	}
	if n.Stats().Completed != 3 {
		t.Fatalf("completed = %d", n.Stats().Completed)
	}
}

func TestMultiCoreParallelism(t *testing.T) {
	env := sim.NewEnv(1)
	n := NewNode(env, 0, 4, 1<<20)
	for i := 0; i < 4; i++ {
		env.Go(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			n.Exec(p, 10*time.Millisecond)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != sim.Time(10*time.Millisecond) {
		t.Fatalf("4 tasks on 4 cores took %v, want 10ms", env.Now())
	}
}

func TestRunQueueStatTracksLoad(t *testing.T) {
	env := sim.NewEnv(1)
	n := NewNode(env, 0, 1, 1<<20)
	var during int
	for i := 0; i < 5; i++ {
		env.Go(fmt.Sprintf("t%d", i), func(p *sim.Proc) { n.Exec(p, time.Millisecond) })
	}
	env.Go("observer", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		during = n.RunQueueLen()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if during != 5 {
		t.Fatalf("run queue during burst = %d, want 5", during)
	}
	if n.RunQueueLen() != 0 {
		t.Fatalf("run queue after drain = %d", n.RunQueueLen())
	}
}

func TestSnapshotMatchesStats(t *testing.T) {
	env := sim.NewEnv(1)
	n := NewNode(env, 0, 2, 1<<20)
	env.Go("p", func(p *sim.Proc) {
		n.ThreadStarted()
		n.ThreadStarted()
		n.ConnOpened()
		if !n.Alloc(4096) {
			t.Error("alloc failed")
		}
		p.Sleep(time.Millisecond)
		got := DecodeStats(n.Snapshot())
		if got.Threads != 2 || got.Connections != 1 || got.MemUsed != 4096 {
			t.Errorf("snapshot = %+v", got)
		}
		n.SetThreads(1)
		if DecodeStats(n.Snapshot()).Threads != 1 {
			t.Error("snapshot not updated eagerly")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeStatsShortBuffer(t *testing.T) {
	if got := DecodeStats(make([]byte, 10)); got != (KernelStats{}) {
		t.Fatalf("short buffer decoded to %+v", got)
	}
}

func TestMemAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	n := NewNode(env, 0, 1, 1000)
	if !n.Alloc(600) {
		t.Fatal("first alloc failed")
	}
	if n.Alloc(500) {
		t.Fatal("overcommit allowed")
	}
	if n.MemFree() != 400 {
		t.Fatalf("free = %d", n.MemFree())
	}
	n.Free(600)
	if n.memUsed != 0 {
		t.Fatalf("used = %d", n.memUsed)
	}
	if n.Alloc(-1) {
		t.Fatal("negative alloc allowed")
	}
}

func TestExecSlicedInterleaves(t *testing.T) {
	// Two long sliced tasks on one core must finish at nearly the same
	// time (round-robin), not one strictly after the other.
	env := sim.NewEnv(1)
	n := NewNode(env, 0, 1, 1<<20)
	var finish []sim.Time
	for i := 0; i < 2; i++ {
		env.Go(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			n.ExecSliced(p, 10*time.Millisecond, time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	gap := time.Duration(finish[1] - finish[0])
	if gap > 2*time.Millisecond {
		t.Fatalf("sliced tasks finished %v apart; not interleaved", gap)
	}
}

func TestSpawnLoadDrivesRunQueue(t *testing.T) {
	env := sim.NewEnv(1)
	n := NewNode(env, 0, 1, 1<<20)
	n.SpawnLoad(4, 5*time.Millisecond, 0)
	var q int
	env.Go("obs", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond)
		q = n.RunQueueLen()
	})
	if err := env.RunUntil(sim.Time(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if q < 3 {
		t.Fatalf("run queue = %d under 4-way load on 1 core", q)
	}
	if n.Stats().Threads != 4 {
		t.Fatalf("threads = %d", n.Stats().Threads)
	}
}

func TestClusterConstruction(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, 5, 2, 1<<20)
	if len(c.Nodes) != 5 {
		t.Fatalf("size = %d", len(c.Nodes))
	}
	if c.Node(3) == nil || c.Node(3).ID != 3 {
		t.Fatal("node lookup failed")
	}
	if c.Node(-1) != nil || c.Node(5) != nil {
		t.Fatal("out-of-range lookup returned node")
	}
	if c.Node(0).Cores() != 2 {
		t.Fatal("core count wrong")
	}
}

// Property: snapshot decode is the inverse of publish for any stat values.
func TestPropertySnapshotRoundTrip(t *testing.T) {
	f := func(threads, conns uint8, mem uint16) bool {
		env := sim.NewEnv(1)
		n := NewNode(env, 0, 2, 1<<30)
		ok := true
		env.Go("p", func(p *sim.Proc) {
			n.SetThreads(int(threads))
			for i := 0; i < int(conns); i++ {
				n.ConnOpened()
			}
			if !n.Alloc(int64(mem)) {
				ok = false
				return
			}
			got := DecodeStats(n.Snapshot())
			ok = got.Threads == int(threads) && got.Connections == int(conns) && got.MemUsed == int64(mem)
		})
		if err := env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
