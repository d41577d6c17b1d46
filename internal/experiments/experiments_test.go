package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestCatalogueComplete(t *testing.T) {
	all := All()
	if len(all) < 15 {
		t.Fatalf("catalogue has %d experiments", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Figure == "" || e.Name == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if all[0].ID != "E1" || all[0].CommandName() != "ddss-latency" || all[2].ID != "E3" || all[2].CommandName() != "lock-cascade -mode shared" {
		t.Fatalf("E1 runs as %q and E3 as %q; want ddss-latency and lock-cascade -mode shared", all[0].CommandName(), all[2].CommandName())
	}
	// E15 came after the golden was captured: it renders, but outside it.
	if e := all[14]; e.ID != "E15" || e.Name != "filecache" || !e.GoldenExcluded {
		t.Fatalf("entry 15 is %s (%s, golden-excluded %v); want E15, filecache, excluded", e.ID, e.Name, e.GoldenExcluded)
	}
}

// TestUnreadFlags pins which variant flags each subcommand reads: a flag
// the run never reads is rejected, not ignored, and under "all" the pins
// override -mode and -proxies.
func TestUnreadFlags(t *testing.T) {
	for _, tc := range []struct {
		cmd  string
		set  []string
		want string
	}{
		{"multicast", []string{"faults", "mode", "proxies", "quick", "rubis"}, "[faults mode proxies rubis]"},
		{"multicast", []string{"seed", "quick", "parallel", "trace", "cpuprofile"}, "[]"},
		{"lock-cascade", []string{"mode"}, "[]"},
		{"lock-cascade", []string{"measure", "mode"}, "[measure]"},
		{"coopcache", []string{"measure", "proxies"}, "[]"},
		{"coopcache", []string{"rubis"}, "[rubis]"},
		{"monitor-throughput", []string{"rubis"}, "[]"},
		{"monitor-accuracy", []string{"rubis"}, "[rubis]"},
		{"reconfig", []string{"faults"}, "[]"},
		{"dc-scale", []string{"faults"}, "[faults]"},
		{"all", []string{"mode"}, "[mode]"},
		{"all", []string{"proxies"}, "[proxies]"},
		{"all", []string{"faults", "measure", "rubis", "seed"}, "[]"},
	} {
		if got := fmt.Sprint(UnreadFlags(tc.cmd, tc.set)); got != tc.want {
			t.Errorf("UnreadFlags(%s, %v) = %s, want %s", tc.cmd, tc.set, got, tc.want)
		}
	}
}

// TestLockCascadeRejectsUnknownMode: a mistyped -mode is an error, not
// Fig 5a under another name.
func TestLockCascadeRejectsUnknownMode(t *testing.T) {
	if _, err := LockCascade(Options{Quick: true, Mode: "exlusive"}); err == nil || !strings.Contains(err.Error(), `"exlusive"`) {
		t.Fatalf("mode \"exlusive\": err = %v, want one naming the mode", err)
	}
}

// TestEveryExperimentRunsQuick executes the whole catalogue with Quick
// options: every figure generator must produce a titled, non-empty table.
func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Figure, err)
			}
			if tb.Title == "" || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			out := tb.String()
			if !strings.Contains(out, tb.Columns[0]) {
				t.Fatalf("%s: render missing header:\n%s", e.ID, out)
			}
		})
	}
}

func TestSeedDefaulting(t *testing.T) {
	if (Options{}).seed() != 1 || (Options{Seed: 9}).seed() != 9 {
		t.Fatal("seed defaulting wrong")
	}
}

func TestQuickAndFullSameShape(t *testing.T) {
	// Quick runs use the same generators: a spot check that the DDSS
	// table keeps its column structure across modes.
	quick, err := DDSSLatency(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(quick.Columns) != 7 { // size + 6 models
		t.Fatalf("columns = %v", quick.Columns)
	}
}
