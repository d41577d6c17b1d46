package faults

import (
	"testing"
	"time"

	"ngdc/internal/sim"
)

// TestNilInjectorIsHealthy pins the nil-safe contract transports rely
// on: a nil *Injector reports a fully healthy cluster.
func TestNilInjectorIsHealthy(t *testing.T) {
	var inj *Injector
	if inj.Down(0) || inj.Faulted(0, 1) || inj.DropMsg(0, 1) {
		t.Fatal("nil injector reported a fault")
	}
	if !inj.Reachable(0, 1) {
		t.Fatal("nil injector reported unreachable")
	}
	if inj.LinkDelay(0, 1) != 0 {
		t.Fatal("nil injector reported link delay")
	}
	if inj.Stats() != (Stats{}) {
		t.Fatal("nil injector reported stats")
	}
	inj.OnCrash(func(int) {}) // must not panic
	inj.NoteDrop()
	inj.NoteDelay()
}

// TestEmptyPlanInstallsNothing checks that a nil or empty plan leaves
// the environment untouched — the faults-off determinism guarantee.
func TestEmptyPlanInstallsNothing(t *testing.T) {
	env := sim.NewEnv(1)
	if Install(env, nil) != nil || Install(env, &Plan{Seed: 9}) != nil {
		t.Fatal("empty plan produced an injector")
	}
	if Of(env) != nil {
		t.Fatal("empty plan bound an injector to the environment")
	}
}

// TestPlanFiresAtInstants walks a crash/partition/heal/restart plan and
// checks the live state at each virtual instant.
func TestPlanFiresAtInstants(t *testing.T) {
	env := sim.NewEnv(1)
	plan := &Plan{Seed: 7, Events: []Event{
		{At: 10 * time.Microsecond, Kind: Crash, Node: 1},
		{At: 20 * time.Microsecond, Kind: Partition, A: 0, B: 2},
		{At: 30 * time.Microsecond, Kind: Heal, A: 2, B: 0}, // reversed endpoints: links are undirected
		{At: 40 * time.Microsecond, Kind: Restart, Node: 1},
		{At: 50 * time.Microsecond, Kind: Delay, A: 0, B: 1, Extra: 2 * time.Microsecond},
	}}
	inj := Install(env, plan)
	if inj == nil || Of(env) != inj {
		t.Fatal("Install did not bind the injector")
	}
	var crashed []int
	inj.OnCrash(func(n int) { crashed = append(crashed, n) })

	type probe struct {
		at      time.Duration
		down1   bool
		reach02 bool
		delay01 time.Duration
	}
	probes := []probe{
		{5 * time.Microsecond, false, true, 0},
		{15 * time.Microsecond, true, true, 0},
		{25 * time.Microsecond, true, false, 0},
		{35 * time.Microsecond, true, true, 0},
		{45 * time.Microsecond, false, true, 0},
		{55 * time.Microsecond, false, true, 2 * time.Microsecond},
	}
	for _, pr := range probes {
		pr := pr
		env.At(sim.Time(pr.at), func() {
			if got := inj.Down(1); got != pr.down1 {
				t.Errorf("at %v: Down(1)=%v want %v", pr.at, got, pr.down1)
			}
			if got := inj.Reachable(0, 2); got != pr.reach02 {
				t.Errorf("at %v: Reachable(0,2)=%v want %v", pr.at, got, pr.reach02)
			}
			if got := inj.LinkDelay(1, 0); got != pr.delay01 {
				t.Errorf("at %v: LinkDelay(1,0)=%v want %v", pr.at, got, pr.delay01)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(crashed) != 1 || crashed[0] != 1 {
		t.Fatalf("OnCrash saw %v, want [1]", crashed)
	}
	st := inj.Stats()
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("stats = %+v, want 1 crash / 1 restart", st)
	}
}

// TestLossReplayDeterminism drives the same lossy plan twice and
// asserts the drop decisions — drawn from the injector's private,
// plan-seeded PRNG — are identical, and that the environment's own
// random stream is never consumed by them.
func TestLossReplayDeterminism(t *testing.T) {
	run := func() (drops []bool, envRand int64) {
		env := sim.NewEnv(1)
		inj := Install(env, &Plan{Seed: 42, Events: []Event{
			{At: 0, Kind: Loss, A: 0, B: 1, Prob: 0.5},
		}})
		env.At(sim.Time(time.Microsecond), func() {
			for i := 0; i < 64; i++ {
				drops = append(drops, inj.DropMsg(0, 1))
			}
			envRand = env.Rand().Int63()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return drops, envRand
	}
	d1, r1 := run()
	d2, r2 := run()
	if len(d1) != 64 || len(d2) != 64 {
		t.Fatalf("probe counts: %d, %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("drop decision %d differs across replays", i)
		}
	}
	if r1 != r2 {
		t.Fatal("environment PRNG perturbed by loss decisions")
	}
	// A healthy link must never consume the injector's PRNG either.
	env := sim.NewEnv(1)
	inj := Install(env, &Plan{Seed: 42, Events: []Event{
		{At: 0, Kind: Loss, A: 0, B: 1, Prob: 0.5},
	}})
	var before, after Stats
	env.At(sim.Time(time.Microsecond), func() {
		before = inj.Stats()
		for i := 0; i < 64; i++ {
			if inj.DropMsg(2, 3) {
				t.Error("healthy link dropped a message")
			}
		}
		after = inj.Stats()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if before.Drops != after.Drops {
		t.Fatal("healthy-link probes changed drop stats")
	}
}

// TestParseRoundTrip pins the -faults grammar: Parse accepts what
// Plan.String emits and reproduces the same plan.
func TestParseRoundTrip(t *testing.T) {
	in := "seed=42; crash@5ms node=1; restart@20ms node=1; " +
		"partition@1ms a=0 b=2; heal@3ms a=0 b=2; " +
		"delay@2ms a=0 b=1 add=10µs; loss@2ms a=0 b=1 p=0.25"
	plan, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 42 || len(plan.Events) != 6 {
		t.Fatalf("parsed seed=%d events=%d", plan.Seed, len(plan.Events))
	}
	plan2, err := Parse(plan.String())
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if plan2.Seed != plan.Seed || len(plan2.Events) != len(plan.Events) {
		t.Fatalf("round-trip mismatch: %s vs %s", plan, plan2)
	}
	for i := range plan.Events {
		if plan.Events[i] != plan2.Events[i] {
			t.Fatalf("event %d: %v vs %v", i, plan.Events[i], plan2.Events[i])
		}
	}
}

// TestParseErrors rejects malformed directives with a useful error.
func TestParseErrors(t *testing.T) {
	bad := []string{
		"explode@5ms node=1",       // unknown kind
		"crash node=1",             // missing @when
		"crash@abc node=1",         // bad duration
		"crash@5ms",                // missing node
		"partition@5ms a=0",        // missing b
		"delay@5ms a=0 b=1",        // missing add
		"loss@5ms a=0 b=1",         // missing p
		"loss@5ms a=0 b=1 p=1.5",   // p out of range
		"crash@5ms node=1 foo=bar", // unknown key
		"seed=xyz",                 // bad seed
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted a malformed plan", s)
		}
	}
	// Comments and blank directives are fine.
	p, err := Parse("# a comment\n\nseed=3; ;crash@1ms node=0")
	if err != nil || p.Seed != 3 || len(p.Events) != 1 {
		t.Fatalf("comment/blank handling: %v %+v", err, p)
	}
}
