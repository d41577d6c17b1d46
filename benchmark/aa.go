package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// aaStat is one metric of one workload in one set of an A/A check.
type aaStat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

// aaRow compares one metric of one workload across the two sets.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	A        aaStat  `json:"a"`
	B        aaStat  `json:"b"`
	Diff     float64 `json:"diff"` // |median B - median A| / median A
	OK       bool    `json:"ok"`
}

// aaReport is what -aa prints as its last line; baseline.json is one.
type aaReport struct {
	Date    string   `json:"date"`
	Host    hostInfo `json:"host"`
	Runs    int      `json:"runs_per_set"`
	Seconds float64  `json:"seconds"`
	OK      bool     `json:"ok"`
	Rows    []aaRow  `json:"rows"`
}

func statOf(xs []float64) aaStat {
	q1, q3 := quartiles(xs)
	return aaStat{Median: median(xs), Q1: q1, Q3: q3, Spread: spread(xs), Values: xs}
}

// runAA is the benchmark's self-check: the same binary measures every
// workload n times in each of two interleaved sets (run i of both sets
// uses seed cfg.seed+i), and the sets' medians must agree within each
// end-to-end metric's bound — the test any later base-vs-head comparison
// has to be able to pass when base and head are the same code. Each run
// is its own process, as peak_rss_mb and setup_s are per process.
func runAA(n int, cfg config, out, errOut io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(errOut, "benchmark:", err)
		return 2
	}
	// values[workload][set][metric] → one value per run
	values := map[string][2]map[string][]float64{}
	for _, w := range workloads {
		values[w.name] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for set := 0; set < 2; set++ {
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
				cmd.Stderr = errOut
				stdout, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(errOut, "benchmark: %s run %d set %c: %v\n%s", w.name, i, 'A'+set, err, stdout)
					return 1
				}
				res, err := lastLine(stdout)
				if err != nil {
					fmt.Fprintf(errOut, "benchmark: %s run %d set %c: %v\n", w.name, i, 'A'+set, err)
					return 2
				}
				for name, m := range res.Metrics {
					values[w.name][set][name] = append(values[w.name][set][name], m.Value)
				}
				fmt.Fprintf(out, "%-10s run %d set %c: reqs_per_s %.1f\n", w.name, i, 'A'+set, res.Metrics["reqs_per_s"].Value)
			}
		}
	}

	rep := aaReport{Date: time.Now().UTC().Format(time.RFC3339), Host: readHost(), Runs: n, Seconds: cfg.seconds, OK: true}
	fmt.Fprintf(out, "\n%-10s %-15s %14s %8s %14s %8s %8s %6s\n", "workload", "metric", "median A", "spread", "median B", "spread", "diff", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := statOf(values[w.name][0][d.name]), statOf(values[w.name][1][d.name])
			row := aaRow{Workload: w.name, Metric: d.name, Unit: d.unit, Bound: d.bound, A: a, B: b}
			if a.Median != 0 {
				row.Diff = math.Abs(b.Median-a.Median) / a.Median
			}
			row.OK = row.Diff <= d.bound
			rep.OK = rep.OK && row.OK
			verdict := ""
			if !row.OK {
				verdict = "  OUTSIDE BOUND"
			}
			fmt.Fprintf(out, "%-10s %-15s %14.4f %7.2f%% %14.4f %7.2f%% %7.2f%% %5.0f%%%s\n",
				w.name, d.name, a.Median, 100*a.Spread, b.Median, 100*b.Spread, 100*row.Diff, 100*d.bound, verdict)
			rep.Rows = append(rep.Rows, row)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(errOut, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(out, "%s\n", line)
	if !rep.OK {
		return 1
	}
	return 0
}

// lastLine decodes the result line that ends a run's output.
func lastLine(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, nil
}
