package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestQuickCatalogueGolden pins the full Quick catalogue — every
// rendered table plus the merged trace snapshot — to a checked-in
// golden captured before the verbs event-chain datapath rewrite. Any
// change to virtual-time outcomes anywhere in the framework (engine,
// fabric, verbs, consumers) shows up here as a byte diff. The fault
// layer is linked but no plan is installed: faults off must leave every
// byte as it was. The engine
// trace record is excluded: events-processed and procs-spawned are
// exactly the quantities datapath optimizations are meant to reduce.
func TestQuickCatalogueGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_catalogue.golden")
	if err != nil {
		t.Fatal(err)
	}
	tables, traceOut := renderAll(t, 1)
	var b strings.Builder
	b.WriteString(tables)
	b.WriteString("--- trace ---\n")
	for _, line := range strings.Split(traceOut, "\n") {
		if strings.Contains(line, `"record":"engine"`) {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	got := strings.TrimRight(b.String(), "\n") + "\n"
	if got != strings.TrimRight(string(want), "\n")+"\n" {
		diffAt := 0
		w := strings.TrimRight(string(want), "\n") + "\n"
		for diffAt < len(got) && diffAt < len(w) && got[diffAt] == w[diffAt] {
			diffAt++
		}
		lo := diffAt - 120
		if lo < 0 {
			lo = 0
		}
		hiG, hiW := diffAt+120, diffAt+120
		if hiG > len(got) {
			hiG = len(got)
		}
		if hiW > len(w) {
			hiW = len(w)
		}
		t.Fatalf("Quick catalogue diverged from pre-datapath golden at byte %d:\n--- got ---\n…%s…\n--- want ---\n…%s…",
			diffAt, got[lo:hiG], w[lo:hiW])
	}
}
