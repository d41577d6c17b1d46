package reconfig

import (
	"fmt"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/sim"
)

func quickCfg(p Policy) Config {
	cfg := DefaultConfig(p)
	cfg.Measure = 2 * time.Second
	return cfg
}

func TestRunProducesTraffic(t *testing.T) {
	for _, p := range []Policy{Naive, HistoryAware} {
		res, err := Run(quickCfg(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Requests == 0 || res.TPS <= 0 {
			t.Fatalf("%v: no traffic: %+v", p, res)
		}
	}
}

func TestReconfigurationHappens(t *testing.T) {
	// Load alternates between the services; both policies must move nodes
	// at least once.
	for _, p := range []Policy{Naive, HistoryAware} {
		res, err := Run(quickCfg(p))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reconfigs == 0 {
			t.Fatalf("%v: no reconfigurations under shifting load", p)
		}
	}
}

func TestHistoryAwareThrashesLess(t *testing.T) {
	naive, err := Run(quickCfg(Naive))
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Run(quickCfg(HistoryAware))
	if err != nil {
		t.Fatal(err)
	}
	if hist.Reconfigs >= naive.Reconfigs {
		t.Fatalf("history-aware moved %d times vs naive %d; hysteresis not working",
			hist.Reconfigs, naive.Reconfigs)
	}
}

func TestHistoryAwareThroughputAtLeastComparable(t *testing.T) {
	naive, err := Run(quickCfg(Naive))
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Run(quickCfg(HistoryAware))
	if err != nil {
		t.Fatal(err)
	}
	if hist.TPS < 0.9*naive.TPS {
		t.Fatalf("history-aware TPS %.0f far below naive %.0f", hist.TPS, naive.TPS)
	}
}

func TestConcurrentAgentsSerialize(t *testing.T) {
	res, err := Run(quickCfg(Naive))
	if err != nil {
		t.Fatal(err)
	}
	// With the agents deciding on the same schedule, CAS conflicts must
	// occur — and be survived without livelock or panic.
	if res.CASConflicts == 0 {
		t.Fatalf("no CAS conflicts among %d agents: the concurrency control went unexercised", agents)
	}
	if res.Requests == 0 {
		t.Fatal("no traffic with concurrent agents")
	}
}

func TestPolicyString(t *testing.T) {
	if Naive.String() != "naive" || HistoryAware.String() != "history-aware" {
		t.Fatal("policy names wrong")
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Run(quickCfg(HistoryAware))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(HistoryAware))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestRule pins the decision rule that E11's agents and E16's loop both
// run: its threshold, EWMA, cooldown, never-strip refusal and the reset
// a move makes.
func TestRule(t *testing.T) {
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	three := [2]int{3, 3}
	decide := func(r *Rule, now sim.Time, load0, load1 float64, counts [2]int) string {
		from, to, ok := r.Decide(now, [2]float64{load0, load1}, counts)
		if !ok {
			return "stay"
		}
		return fmt.Sprintf("%d->%d", from, to)
	}
	expect := func(t *testing.T, step, got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: got %s, want %s", step, got, want)
		}
	}

	t.Run("naive threshold", func(t *testing.T) {
		r := Rule{Policy: Naive}
		// Means 1.0 vs 0: a gap of exactly the threshold is no move.
		expect(t, "gap 1.0", decide(&r, 0, 3, 0, three), "stay")
		expect(t, "gap 4/3", decide(&r, 0, 4, 0, three), "1->0")
		expect(t, "gap -4/3", decide(&r, 0, 0, 4, three), "0->1")
		// The sums are averaged per node before they are compared.
		expect(t, "gap 4/6", decide(&r, 0, 4, 0, [2]int{6, 3}), "stay")
		// Naive has no cooldown.
		r.Moved(ms(100))
		expect(t, "right after a move", decide(&r, ms(100), 4, 0, three), "1->0")
	})

	t.Run("never strip", func(t *testing.T) {
		for _, p := range []Policy{Naive, HistoryAware} {
			r := Rule{Policy: p}
			expect(t, p.String(), decide(&r, ms(300), 0, 30, [2]int{1, 5}), "stay")
			expect(t, p.String(), decide(&r, ms(300), 30, 0, [2]int{5, 1}), "stay")
		}
	})

	t.Run("history EWMA", func(t *testing.T) {
		// A steady gap of 3 per node: the average reaches 3(1-0.75^n),
		// which first clears 2.5 on the seventh decision.
		r := Rule{Policy: HistoryAware}
		for n := 1; n <= 6; n++ {
			expect(t, fmt.Sprintf("decision %d", n), decide(&r, ms(300+50*n), 9, 0, three), "stay")
		}
		expect(t, "decision 7", decide(&r, ms(650), 9, 0, three), "1->0")
	})

	t.Run("history cooldown", func(t *testing.T) {
		// Inside the first 300 ms nothing moves, but the average still
		// takes the sample: 0.25*20 = 5 carries to 0.75*5 = 3.75 at 300 ms.
		r := Rule{Policy: HistoryAware}
		expect(t, "50 ms", decide(&r, ms(50), 60, 0, three), "stay")
		expect(t, "300 ms", decide(&r, ms(300), 0, 0, three), "1->0")
	})

	t.Run("Moved resets", func(t *testing.T) {
		r := Rule{Policy: HistoryAware}
		expect(t, "before", decide(&r, ms(300), 60, 0, three), "1->0")
		r.Moved(ms(300))
		// The cooldown restarts at the move, and so does the average:
		// 0.75, then 1.3125. Carried over from 5 it would be 4.125 at
		// 600 ms, and the node would move again.
		expect(t, "in cooldown", decide(&r, ms(550), 9, 0, three), "stay")
		expect(t, "after cooldown", decide(&r, ms(600), 9, 0, three), "stay")
	})
}

// TestLeastLoaded picks, among a service's nodes, the shortest run
// queue, and the lowest index on a tie.
func TestLeastLoaded(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	nodes := make([]*cluster.Node, 4)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 1, 1<<20)
	}
	nodes[0].SpawnLoad(2, time.Millisecond, 0)
	if err := env.RunUntil(sim.Time(100 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	assign := []int{0, 1, 0, -1}
	for _, c := range []struct{ service, want int }{{0, 2}, {1, 1}, {2, -1}} {
		if got := LeastLoaded(nodes, assign, c.service); got != c.want {
			t.Errorf("service %d: got node %d, want %d", c.service, got, c.want)
		}
	}
	if got := LeastLoaded(nodes, []int{0, 0, 0, 0}, 0); got != 1 {
		t.Errorf("tie: got node %d, want 1", got)
	}
}
