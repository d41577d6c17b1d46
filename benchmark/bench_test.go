package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestMedianAndQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.median / statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 3, 1, 4.5},
		{[]float64{2, 8}, 5, 0.5, 9.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
	if median(nil) != 0 || spread(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the naming rules", w.name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the benchmark", kind, d.name, g.Bound, d.bound)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %q (%q) breaks the naming rules or repeats", kind, d.name, d.unit)
			}
			if d.better != "higher" && d.better != "lower" {
				t.Errorf("%s %s: better = %q", kind, d.name, d.better)
			}
			if bounded && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.name, d.bound)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", c.Paths)
	}
}

// smoke runs one 1/100-size run in process and returns its result line.
func smoke(t *testing.T, args ...string) (code int, res result, out string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-smoke", "-seconds", "0.001", "-spans", filepath.Join(t.TempDir(), "spans.json")}, args...)
	code = realMain(args, &stdout, &stderr)
	if code == 2 {
		t.Fatalf("%v: %s", args, stderr.String())
	}
	res, err := lastLine(stdout.Bytes())
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return code, res, stdout.String()
}

func TestSmokeRunsEmitExactlyTheContractNames(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			code, res, out := smoke(t, "-workload", w.name, "-trace", strconv.Itoa(trace))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: exit %d, result %+v\n%s", w.name, trace, code, res, out)
				continue
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %d: metric %s missing or unit %q != %q", w.name, trace, d.name, m.Unit, d.unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %d: %s = %v", w.name, trace, d.name, m.Value)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

func TestTracedSmokeWritesSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-seconds", "0.001", "-workload", "svc-live", "-trace", "1", "-spans", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range f.Spans {
		names[s.Name]++
		if s.EndNs < s.StartNs || (s.Parent < 0) != (s.Name == "run") {
			t.Errorf("span %+v: bad interval or parent", s)
		}
	}
	for _, want := range []string{"run", "setup", "warmup", "rep[0]", "rep[1]", svcLive.call,
		"serve.encode", "runtime.send", "runtime.recv", "serve.decode", "drives", "drive:lru.drive_ns_per_op"} {
		if names[want] == 0 {
			t.Errorf("span %q missing; have %v", want, names)
		}
	}
	if f.Host.NProc < 1 || f.Host.Go == "" {
		t.Errorf("span file carries no host fingerprint: %+v", f.Host)
	}
}

func TestCorruptedOutputFailsTheRun(t *testing.T) {
	// svc-live: one expected echo payload is altered; svc-sim and figs:
	// the reference digest and golden are.
	for _, w := range []string{"svc-live", "svc-sim", "figs"} {
		code, res, out := smoke(t, "-workload", w, "-corrupt")
		if code != 1 || res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s -corrupt: exit %d, result correct=%v failed=%d attempted=%d\n%s", w, code, res.Correct, res.Failed, res.Attempted, out)
		}
		if !strings.Contains(out, "FAILED repetition") {
			t.Errorf("%s -corrupt: output does not say which repetition failed:\n%s", w, out)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}
