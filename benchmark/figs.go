package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"ngdc/internal/experiments"
	ngdcrt "ngdc/internal/runtime"
	"ngdc/internal/trace"
)

// The figs workload renders the golden-covered quick catalogue (E1–E16)
// figsPasses times per repetition. Pass 0 uses the seed the checked-in
// golden was captured with and is compared with it byte for byte, the
// way TestQuickCatalogueGolden assembles it; the other passes take
// their seeds from -seed and must render identically in every
// repetition.
const (
	figsPasses    = 4
	goldenSeed    = 7
	goldenRelPath = "internal/experiments/testdata/quick_catalogue.golden"
	traceMarker   = "--- trace ---\n"
)

// repoRoot finds the checkout root from the working directory, which is
// the root itself or (under `go run -C benchmark`) the benchmark's own
// directory.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, goldenRelPath)); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find %s from the working directory or its parent", goldenRelPath)
}

// catalogue is the golden-covered part of experiments.All().
func catalogue() []experiments.Experiment {
	var out []experiments.Experiment
	for _, e := range experiments.All() {
		if !e.GoldenExcluded {
			out = append(out, e)
		}
	}
	return out
}

// goldenTrace renders a registry snapshot as the golden stores it: JSONL
// without the engine record, whose event counts optimisations may lower.
func goldenTrace(reg *trace.Registry) (string, error) {
	var tr strings.Builder
	if err := reg.Snapshot().WriteJSONL(&tr); err != nil {
		return "", err
	}
	var b strings.Builder
	for _, line := range strings.Split(tr.String(), "\n") {
		if !strings.Contains(line, `"record":"engine"`) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

var figs = func() *workload {
	w := &workload{
		name: "figs",
		why:  "quick catalogue E1-E16 checked against the golden: the only workload that runs sockets schemes, storm, monitor, reconfig, dyncache, qos, multicast, integrated",
		des:  true,
		call: "experiments.catalogue",
	}
	var golden string
	exps := catalogue()
	w.prepare = func(r *run) error {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		data, err := os.ReadFile(filepath.Join(root, goldenRelPath))
		if err != nil {
			return err
		}
		golden = strings.TrimRight(string(data), "\n") + "\n"
		if r.cfg.corrupt {
			golden = "x" + golden
		}
		return nil
	}
	w.rep = func(r *run) repOut {
		passes := figsPasses
		if r.cfg.smoke {
			passes = 1 // the golden pass alone
		}
		out := repOut{requests: int64(passes * len(exps))}
		// A traced repetition attaches registries, as the golden test
		// does: one for the golden pass, whose snapshot the golden pins,
		// and one for the seeded passes.
		var regGolden, regSeeded *trace.Registry
		if r.tracedRep {
			regGolden, regSeeded = trace.NewRegistry(), trace.NewRegistry()
		}
		var goldenPass strings.Builder
		seeded := fnv.New64a()
		var renderErr error
		r.timed(func() {
			for p := 0; p < passes && renderErr == nil; p++ {
				o := experiments.Options{Seed: goldenSeed, Quick: true, Parallel: 1,
					ServiceOptions: ngdcrt.ServiceOptions{Trace: regGolden}}
				if p > 0 {
					o.Seed = r.cfg.seed*figsPasses + int64(p)
					o.Trace = regSeeded
				}
				for _, e := range exps {
					id := r.spans.start(r.callSpan, "experiments."+e.ID+".Render")
					table, err := e.Render(o)
					r.spans.end(id)
					if err != nil {
						renderErr = fmt.Errorf("pass %d %s: %w", p, e.ID, err)
						break
					}
					if p == 0 {
						goldenPass.WriteString(table.String())
						goldenPass.WriteByte('\n')
					} else {
						seeded.Write([]byte(table.String()))
					}
				}
			}
		})
		if renderErr != nil {
			out.failed, out.why = out.requests, renderErr.Error()
			return out
		}

		// Untraced repetitions compare the tables section only; traced
		// ones also the trace snapshot that follows it in the golden.
		got, want := goldenPass.String(), golden
		if r.tracedRep {
			tr, err := goldenTrace(regGolden)
			if err != nil {
				out.failed, out.why = out.requests, err.Error()
				return out
			}
			got = strings.TrimRight(got+traceMarker+tr, "\n") + "\n"
		} else if i := strings.Index(want, traceMarker); i >= 0 {
			want = want[:i]
		}
		if got != want {
			// Only the golden pass is known to be wrong; the rest has no
			// reference to fail against.
			out.failed = int64(len(exps))
			out.why = fmt.Sprintf("golden pass differs from %s (%d vs %d bytes)", goldenRelPath, len(got), len(want))
			return out
		}
		out.digest = fmt.Sprintf("%016x", seeded.Sum64())
		if r.tracedRep {
			st := regGolden.Snapshot().Merge(regSeeded.Snapshot())
			out.events = st.Engine.EventsProcessed
			req := float64(out.requests)
			out.layer = simLayerCounts(st, req, req/1000)
		}
		return out
	}
	return w
}()
