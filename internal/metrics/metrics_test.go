package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.n != 0 {
		t.Fatal("empty summary not zero")
	}
	for _, v := range []float64{2, 4, 6} {
		s.Add(v)
	}
	if s.n != 3 || s.Mean() != 4 || s.Max() != 6 || s.sum != 12 {
		t.Fatalf("summary: %+v mean=%v", s, s.Mean())
	}
}

func TestSummaryAddDuration(t *testing.T) {
	var s Summary
	s.AddDuration(5 * time.Microsecond)
	if s.Mean() != 5 {
		t.Fatalf("duration recorded as %v µs", s.Mean())
	}
}

func TestSummaryMerge(t *testing.T) {
	var a, b, all Summary
	for _, v := range []float64{1, 5, 9} {
		a.Add(v)
		all.Add(v)
	}
	for _, v := range []float64{-3, 4} {
		b.Add(v)
		all.Add(v)
	}
	a.Merge(b)
	if a != all {
		t.Fatalf("merge: %+v, want %+v", a, all)
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var s Summary
	s.Add(7)
	before := s
	s.Merge(Summary{}) // merging empty must not disturb max
	if s != before {
		t.Fatalf("merge with empty changed summary: %+v -> %+v", before, s)
	}
	var empty Summary
	empty.Merge(before) // merging into empty adopts the other's max
	if empty != before {
		t.Fatalf("empty.Merge: %+v", empty)
	}
}

func TestSummaryNegativeBounds(t *testing.T) {
	// A summary of all-negative observations must not report max 0.
	var s Summary
	s.Add(-4)
	s.Add(-2)
	if s.Max() != -2 {
		t.Fatalf("max=%v", s.Max())
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 50: 50, 99: 99, 100: 100}
	for p, want := range cases {
		if got := s.Percentile(p); got != want {
			t.Fatalf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Fatal("empty sample not zero")
	}
}

func TestSamplePercentileAfterAdd(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Percentile(50)
	s.Add(1) // must re-sort
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("min after re-add = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "size", "latency", "note")
	tb.AddRow(1024, 55.5, "ok")
	tb.AddRow(65536, 120.0, time.Millisecond)
	out := tb.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "size") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "55.50") || !strings.Contains(out, "120") {
		t.Fatalf("missing values:\n%s", out)
	}
	if !strings.Contains(out, "1ms") {
		t.Fatalf("duration not rendered:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
}

func TestPercentImprovement(t *testing.T) {
	if got := PercentImprovement(100, 135); math.Abs(got-35) > 1e-9 {
		t.Fatalf("improvement = %v", got)
	}
	if PercentImprovement(0, 10) != 0 {
		t.Fatal("zero base should give 0")
	}
	if got := PercentImprovement(200, 100); got != -50 {
		t.Fatalf("regression = %v", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 || Ratio(1, 0) != 0 {
		t.Fatal("ratio wrong")
	}
}

// Property: percentile is monotonic in p and bounded by min/max.
func TestPropertyPercentileMonotonic(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if len(s.vals) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		lo, hi := s.Percentile(0), s.Percentile(100)
		x, y := s.Percentile(pa), s.Percentile(pb)
		return x <= y && x >= lo && y <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summary mean is at most its max.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			s.Add(v)
		}
		if s.n == 0 {
			return true
		}
		return s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
