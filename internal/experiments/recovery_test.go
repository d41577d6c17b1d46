package experiments

import (
	"strings"
	"testing"
	"time"

	"ngdc/internal/dlm"
	"ngdc/internal/faults"
	"ngdc/internal/runtime"
)

// TestRecoveryExperimentDeterministic renders E17 twice with the same
// seed: the fault plan is part of the simulation's deterministic input,
// so the tables must be byte-identical.
func TestRecoveryExperimentDeterministic(t *testing.T) {
	o := Options{Seed: 7, Quick: true}
	a, err := Recovery(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Recovery(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("E17 replay diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !strings.Contains(a.String(), "recovery latency") {
		t.Fatalf("unexpected table:\n%s", a)
	}
}

// TestRecoveryReleasesGoroutines checks the recovery scenario shuts its
// environment down: the crashed holder stays parked in its critical
// section and the lock daemons never exit, so without the shutdown every
// call — one per E17 table cell — leaves seven goroutines behind.
func TestRecoveryReleasesGoroutines(t *testing.T) {
	leaked := goroutinesLeakedBy(func() {
		for i := 0; i < 20; i++ {
			if _, err := dlm.MeasureRecovery(100*time.Microsecond, runtime.ServiceOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Recovery(Options{Seed: 1, Quick: true}); err != nil {
			t.Fatal(err)
		}
	})
	if leaked > 0 {
		t.Errorf("%d goroutines outlive 20 recovery runs and the quick E17 table", leaked)
	}
}

// TestFaultPlanReplayDeterminism replays one seeded fault plan through
// the reconfiguration experiment twice: same plan + same seed must give
// byte-identical output, including the loss/crash decisions.
func TestFaultPlanReplayDeterminism(t *testing.T) {
	plan, err := faults.Parse("seed=3; crash@700ms node=2; restart@1400ms node=2; loss@900ms a=0 b=3 p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Seed: 7, Quick: true, ServiceOptions: runtime.ServiceOptions{Faults: plan}}
	a, err := Reconfig(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reconfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("fault-plan replay diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !strings.Contains(a.String(), "failovers") {
		t.Fatalf("fault-plan run missing failover column:\n%s", a)
	}
}

// TestCataloguePinsE17 keeps the catalogue entry wired: the recovery
// experiment is resolvable as a subcommand but excluded from the golden.
func TestCataloguePinsE17(t *testing.T) {
	e, ok := Find("recovery")
	if !ok {
		t.Fatal("recovery experiment not in catalogue")
	}
	if e.ID != "E17" {
		t.Fatalf("recovery resolves to %s, want E17", e.ID)
	}
	for _, e := range All() {
		if e.ID == "E17" && !e.GoldenExcluded {
			t.Fatal("E17 must stay out of the pinned golden")
		}
	}
	// Sanity on the sweep shape: quick mode still exercises two leases.
	tb, err := e.Render(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(tb.String(), "\n"); got < 3 {
		t.Fatalf("unexpectedly small E17 table:\n%s", tb)
	}
}
