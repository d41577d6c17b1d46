package experiments

import (
	"errors"
	"strings"
	"testing"

	"ngdc/internal/runtime"
	"ngdc/internal/trace"
)

// renderAll runs the full Quick catalogue with the given worker count
// and returns the concatenated rendered tables plus the merged trace
// snapshot, rendered as JSONL.
func renderAll(t *testing.T, parallel int) (tables, traceOut string) {
	t.Helper()
	reg := trace.NewRegistry()
	o := Options{Seed: 7, Quick: true, Parallel: parallel, ServiceOptions: runtime.ServiceOptions{Trace: reg}}
	var tb strings.Builder
	for _, e := range All() {
		if e.GoldenExcluded {
			// Entries added after the golden was captured stay out of the
			// pinned catalogue; they get their own determinism tests.
			continue
		}
		table, err := e.Render(o)
		if err != nil {
			t.Fatalf("%s (parallel=%d): %v", e.ID, parallel, err)
		}
		tb.WriteString(table.String())
		tb.WriteByte('\n')
	}
	snap := reg.Snapshot()
	checkQueueDepth(t, "quick catalogue", snap.Engine.MaxEventQueue)
	var tr strings.Builder
	if err := snap.WriteJSONL(&tr); err != nil {
		t.Fatal(err)
	}
	return tb.String(), tr.String()
}

// TestParallelMatchesSerial is the determinism regression gate for the
// sweep runner: the full Quick catalogue must produce byte-identical
// tables AND byte-identical merged trace snapshots whether cells run on
// one worker or race across four. Any nondeterminism introduced into
// cell fan-out, result slotting or snapshot folding fails this test.
func TestParallelMatchesSerial(t *testing.T) {
	tables1, trace1 := renderAll(t, 1)
	tables4, trace4 := renderAll(t, 4)
	if tables1 != tables4 {
		t.Errorf("tables differ between -parallel 1 and -parallel 4:\n--- parallel 1 ---\n%s\n--- parallel 4 ---\n%s",
			tables1, tables4)
	}
	if trace1 != trace4 {
		t.Errorf("merged trace snapshots differ between -parallel 1 and -parallel 4:\n--- parallel 1 ---\n%s\n--- parallel 4 ---\n%s",
			trace1, trace4)
	}
	if !strings.Contains(trace1, "\"record\":\"engine\"") {
		t.Error("trace snapshot missing engine record")
	}
}

// TestRunCellsErrorOrder checks the runner reports the first failing
// cell by index, not by completion time, and that worker counts beyond
// the cell count are tolerated.
func TestRunCellsErrorOrder(t *testing.T) {
	errThree := errors.New("cell three")
	errFive := errors.New("cell five")
	err := runCells(Options{Parallel: 8}, 6, func(i int, _ Options) error {
		switch i {
		case 3:
			return errThree
		case 5:
			return errFive
		}
		return nil
	})
	if err != errThree {
		t.Errorf("runCells returned %v, want the lowest-index error %v", err, errThree)
	}
	if err := runCells(Options{Parallel: 3}, 0, nil); err != nil {
		t.Errorf("runCells with zero cells: %v", err)
	}
}
