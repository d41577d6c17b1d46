// Package metrics provides the summary statistics, time series and table
// formatting used by the benchmark harness to report experiment results in
// the same form as the paper's figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary accumulates scalar observations and reports their count, mean
// and maximum. The zero value is an empty summary ready for use.
type Summary struct {
	n        int
	sum, max float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
}

// AddDuration records a duration observation in microseconds.
func (s *Summary) AddDuration(d time.Duration) { s.Add(float64(d) / float64(time.Microsecond)) }

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// Merge folds another summary into s, as if every observation of o had
// been Added to s directly.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 || o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sum += o.sum
}

// Sample retains every observation, enabling percentiles.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// AddDuration records a duration in microseconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(float64(d) / float64(time.Microsecond)) }

// Mean returns the arithmetic mean.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var t float64
	for _, v := range s.vals {
		t += v
	}
	return t / float64(len(s.vals))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s.vals)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.vals[rank]
}

// Table formats experiment results as an aligned text table, mirroring the
// rows/columns of a paper figure.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Columns: cols}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	if math.Abs(v) >= 100 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// PercentImprovement returns how much better next is than base for a
// higher-is-better metric, in percent.
func PercentImprovement(base, next float64) float64 {
	if base == 0 {
		return 0
	}
	return (next - base) / base * 100
}

// Ratio returns a/b, or 0 when b is zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
