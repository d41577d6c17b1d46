// Package workload provides the request generators the paper evaluates
// with: Zipf-distributed document popularity (any exponent, including the
// α < 1 range of Fig 8b, which math/rand's Zipf cannot produce), working
// set descriptions, and a RUBiS-like auction mix whose request classes
// have strongly divergent CPU demands.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Zipf samples ranks 0..N-1 with probability proportional to
// 1/(rank+1)^alpha. Alpha = 0 is uniform; larger alpha concentrates mass
// on low ranks (higher temporal locality).
type Zipf struct {
	rng *rand.Rand
	tab *zipfTable
}

// NewZipf builds a sampler over n items with the given exponent.
func NewZipf(rng *rand.Rand, alpha float64, n int) *Zipf {
	if n <= 0 {
		panic("workload: zipf needs n > 0")
	}
	return &Zipf{rng: rng, tab: zipfCDF(alpha, n)}
}

// zipfCDF memoizes popularity CDFs by (n, alpha). The CDF is a pure
// function of those two parameters — the sampler's rng plays no part in
// building it — and a parameter sweep instantiates many samplers and
// populations over the same working set (often O(10^6) entries each), so
// one shared read-only table serves them all. Samplers never write to
// the table, which is what makes sharing across concurrently-running
// sweep cells sound; the mutex also serializes first computation of a
// given key, so concurrent cells wait for one build instead of racing to
// duplicate it.
var (
	zipfCDFMu    sync.Mutex
	zipfCDFMemo  = map[zipfKey]*zipfTable{}
	zipfCDFBuilt int // distinct CDFs actually computed (for tests)
)

type zipfKey struct {
	n     int
	alpha float64
}

// guideSize is the number of equal slices of [0, 1) a zipfTable's guide
// divides the CDF into. It is a power of two so that u·guideSize and
// j/guideSize are exact in floating point.
const guideSize = 1 << 12

// zipfTable is a popularity CDF and its guide: guide[j] is the first
// rank whose cumulative share reaches j/guideSize. A draw u in
// [j/guideSize, (j+1)/guideSize) therefore lands in cdf[guide[j]:guide[j+1]]
// (or on guide[j+1] itself), so search binary-searches a few entries
// instead of the whole CDF and returns exactly what the full search
// would: the document stream does not depend on the guide.
type zipfTable struct {
	cdf   []float64
	guide [guideSize + 1]int32
}

func zipfCDF(alpha float64, n int) *zipfTable {
	zipfCDFMu.Lock()
	defer zipfCDFMu.Unlock()
	k := zipfKey{n: n, alpha: alpha}
	if t, ok := zipfCDFMemo[k]; ok {
		return t
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	t := &zipfTable{cdf: cdf}
	for j := range t.guide {
		t.guide[j] = int32(sort.SearchFloat64s(cdf, float64(j)/guideSize))
	}
	zipfCDFMemo[k] = t
	zipfCDFBuilt++
	return t
}

// search returns the first rank whose cumulative share reaches u, for u
// in [0, 1): sort.SearchFloat64s(t.cdf, u), run on the guide's slice.
func (t *zipfTable) search(u float64) int {
	j := int(u * guideSize)
	lo, hi := t.guide[j], t.guide[j+1]
	return int(lo) + sort.SearchFloat64s(t.cdf[lo:hi], u)
}

// N returns the number of items.
func (z *Zipf) N() int { return len(z.tab.cdf) }

// Next samples one rank.
func (z *Zipf) Next() int {
	return z.tab.search(z.rng.Float64())
}

// Prob returns the probability of rank i.
func (z *Zipf) Prob(i int) float64 {
	cdf := z.tab.cdf
	if i < 0 || i >= len(cdf) {
		return 0
	}
	if i == 0 {
		return cdf[0]
	}
	return cdf[i] - cdf[i-1]
}

// RequestClass is one kind of request in a service mix.
type RequestClass struct {
	Name string
	// Weight is the relative request frequency.
	Weight float64
	// CPU is the server processing cost.
	CPU time.Duration
	// ReplyBytes is the response size.
	ReplyBytes int
}

// Mix is a weighted request-class distribution.
type Mix struct {
	rng     *rand.Rand
	classes []RequestClass
	cum     []float64
}

// NewMix builds a sampler over the given classes.
func NewMix(rng *rand.Rand, classes []RequestClass) *Mix {
	if len(classes) == 0 {
		panic("workload: empty mix")
	}
	m := &Mix{rng: rng, classes: classes, cum: make([]float64, len(classes))}
	sum := 0.0
	for i, c := range classes {
		if c.Weight <= 0 {
			panic(fmt.Sprintf("workload: class %q has non-positive weight", c.Name))
		}
		sum += c.Weight
		m.cum[i] = sum
	}
	for i := range m.cum {
		m.cum[i] /= sum
	}
	return m
}

// Next samples one request class.
func (m *Mix) Next() RequestClass {
	u := m.rng.Float64()
	return m.classes[sort.SearchFloat64s(m.cum, u)]
}

// RUBiSClasses is a RUBiS-like auction-site mix: mostly cheap browsing
// with occasional expensive search/bid/sell interactions — the divergent
// per-request resource usage Fig 8 relies on.
func RUBiSClasses() []RequestClass {
	return []RequestClass{
		{Name: "home", Weight: 20, CPU: 500 * time.Microsecond, ReplyBytes: 4 << 10},
		{Name: "browse-categories", Weight: 25, CPU: 1500 * time.Microsecond, ReplyBytes: 16 << 10},
		{Name: "view-item", Weight: 25, CPU: 2 * time.Millisecond, ReplyBytes: 24 << 10},
		{Name: "search-by-region", Weight: 12, CPU: 12 * time.Millisecond, ReplyBytes: 32 << 10},
		{Name: "put-bid", Weight: 10, CPU: 6 * time.Millisecond, ReplyBytes: 8 << 10},
		{Name: "sell-item", Weight: 5, CPU: 18 * time.Millisecond, ReplyBytes: 8 << 10},
		{Name: "about-me", Weight: 3, CPU: 25 * time.Millisecond, ReplyBytes: 48 << 10},
	}
}

// HeavyTailSizes generates deterministic per-document sizes following a
// bounded Pareto-like distribution: mostly small documents with a heavy
// tail of large ones, the classic static-web-content shape. Sizes are a
// pure function of the document ID and the parameters.
func HeavyTailSizes(n int, minSize, maxSize int64, alpha float64) []int64 {
	if n <= 0 || minSize <= 0 || maxSize < minSize {
		panic("workload: bad heavy-tail parameters")
	}
	out := make([]int64, n)
	for i := range out {
		// Deterministic pseudo-uniform in (0,1) from the doc ID.
		h := uint64(i)*2862933555777941757 + 3037000493
		u := (float64(h%1_000_000) + 0.5) / 1_000_000
		// Bounded Pareto inverse CDF.
		lo, hi := float64(minSize), float64(maxSize)
		x := math.Pow(-(u*math.Pow(hi, alpha)-u*math.Pow(lo, alpha)-math.Pow(hi, alpha))/
			(math.Pow(hi, alpha)*math.Pow(lo, alpha)), -1/alpha)
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		out[i] = int64(x)
	}
	return out
}
