package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
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

// TestSweepContract checks what sweep and grid promise their callers:
// results come back in input order (grid's res[r][c] is rows[r] ×
// cols[c]) even when cells finish in reverse order on the wall clock,
// an empty sweep returns an empty result, and the first failing cell by
// index wins, not the first to fail. Worker counts beyond the cell
// count are tolerated.
func TestSweepContract(t *testing.T) {
	rows, cols := []int{10, 20, 30}, []string{"a", "b"}
	label := func(r int, c string) string { return fmt.Sprintf("%d%s", r, c) }
	for _, parallel := range []int{1, 8} {
		// Under 8 workers every cell starts at once and each waits for
		// the one after it, so they finish last to first.
		finished := make([]chan struct{}, len(rows)*len(cols)+1)
		for i := range finished {
			finished[i] = make(chan struct{})
		}
		close(finished[len(rows)*len(cols)])
		var mu sync.Mutex
		var order []string
		res, err := grid(Options{Parallel: parallel}, rows, cols, func(r int, c string, _ Options) (string, error) {
			k := slices.Index(rows, r)*len(cols) + slices.Index(cols, c)
			if parallel > 1 {
				<-finished[k+1]
			}
			mu.Lock()
			order = append(order, label(r, c))
			mu.Unlock()
			close(finished[k])
			return label(r, c), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(rows) {
			t.Fatalf("parallel %d: %d rows, want %d", parallel, len(res), len(rows))
		}
		for r, row := range rows {
			for c, col := range cols {
				if got := res[r][c]; got != label(row, col) {
					t.Errorf("parallel %d: res[%d][%d] = %q, want %q", parallel, r, c, got, label(row, col))
				}
			}
		}
		if want := []string{"30b", "30a", "20b", "20a", "10b", "10a"}; parallel > 1 && !slices.Equal(order, want) {
			t.Errorf("parallel %d: cells finished %v, want %v", parallel, order, want)
		}
	}

	empty, err := grid(Options{Parallel: 3}, []int{}, cols, func(int, string, Options) (int, error) {
		t.Error("a cell ran in an empty grid")
		return 0, nil
	})
	if err != nil || len(empty) != 0 {
		t.Errorf("grid with zero rows = %v, %v; want an empty result", empty, err)
	}

	errThree := errors.New("cell three")
	errFive := errors.New("cell five")
	fiveFailed := make(chan struct{})
	_, err = sweep(Options{Parallel: 8}, []int{0, 1, 2, 3, 4, 5}, func(i int, _ Options) (int, error) {
		switch i {
		case 3:
			<-fiveFailed
			return 0, errThree
		case 5:
			close(fiveFailed)
			return 0, errFive
		}
		return i, nil
	})
	if err != errThree {
		t.Errorf("sweep returned %v, want the lowest-index error %v", err, errThree)
	}
}
