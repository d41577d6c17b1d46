package experiments

import (
	"testing"

	"ngdc/internal/runtime"
	"ngdc/internal/trace"
)

// catalogueBudget is what one golden-covered quick experiment costs the
// engine at seed 7: the events it executes, pinned exactly, and the
// process resumes it may pay at most.
type catalogueBudget struct {
	events, maxResumes uint64
}

// catalogueBudgets pins every golden-covered experiment. The events are
// the schedule: an event chain that replaces a process keeps every one
// of them, and a receive handler that replaces a receive loop saves only
// the loop's wake event per message, so a count that moves otherwise is
// a changed schedule, not a cheaper one. The resume bounds are what the
// host pays for process hand-offs.
var catalogueBudgets = map[string]catalogueBudget{
	"E1":  {172, 36},
	"E2":  {224, 113},
	"E3":  {108120, 264}, // DQNL's polls are timer callbacks: 90039 with a polling process; 108194 and 403 with N-CoSED's receive daemons and poller processes
	"E4":  {90122, 222},  // 89932 with a polling process; 90196 and 296 with N-CoSED's daemons and pollers
	"E5":  {219002, 0},   // Fig 6 clients are event chains: 32960 with a process per client
	"E6":  {570003, 0},   // 75021 with a process per client
	"E7":  {4372, 2848},
	"E8":  {105360, 50630},
	"E9":  {4540, 1356},
	"E10": {2241, 1035},
	"E11": {49853, 30707},
	"E12": {164287, 590}, // the updater alone: 87094 with a process per client
	"E13": {128975, 57149},
	"E14": {232, 192}, // 236 and 196 while each multicast root waited on a WaitGroup for its deliveries
	"E16": {122969, 62475},
}

// TestCatalogueHandOffBudget renders each golden-covered quick
// experiment at seed 7 on one worker with its own registry and checks
// its engine counters against catalogueBudgets. The golden pins the
// tables; this pins that the events behind them stayed the same.
func TestCatalogueHandOffBudget(t *testing.T) {
	var events, resumes uint64
	for _, e := range All() {
		if e.GoldenExcluded {
			continue
		}
		reg := trace.NewRegistry()
		o := Options{Seed: 7, Quick: true, Parallel: 1, ServiceOptions: runtime.ServiceOptions{Trace: reg}}
		if _, err := e.Render(o); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		es := reg.Snapshot().Engine
		events, resumes = events+es.EventsProcessed, resumes+es.Resumes
		t.Logf("%-4s %8d events %7d resumes %5d processes", e.ID, es.EventsProcessed, es.Resumes, es.ProcsSpawned)
		want, ok := catalogueBudgets[e.ID]
		if !ok {
			t.Errorf("%s has no budget", e.ID)
			continue
		}
		if es.EventsProcessed != want.events {
			t.Errorf("%s: %d events, want %d (a changed schedule)", e.ID, es.EventsProcessed, want.events)
		}
		if es.Resumes > want.maxResumes {
			t.Errorf("%s: %d resumes, budget %d", e.ID, es.Resumes, want.maxResumes)
		}
	}
	t.Logf("all  %8d events %7d resumes", events, resumes)
}
