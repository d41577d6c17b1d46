package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 0, 10)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("rank %d count %d not ~10000 under uniform", i, c)
		}
	}
}

// TestZipfCDFMemoized pins the sweep-sharing contract: every sampler and
// population over the same (docs, alpha) shares one CDF array, computed
// once; distinct parameters get distinct arrays with correct values; and
// memoization is invisible in the sampled streams, which stay
// byte-identical for identical parameters.
func TestZipfCDFMemoized(t *testing.T) {
	// Parameters no other test uses, so this test owns the cache entry.
	const docs, alpha = 4321, 0.87
	built := func() int {
		zipfCDFMu.Lock()
		defer zipfCDFMu.Unlock()
		return zipfCDFBuilt
	}
	before := built()
	p1 := NewPopulation(1_000, docs, alpha, 1)
	p2 := NewPopulation(2_000, docs, alpha, 99)
	z := NewZipf(rand.New(rand.NewSource(5)), alpha, docs)
	if n := built() - before; n != 1 {
		t.Errorf("computed %d CDFs for one (docs, alpha) key, want 1", n)
	}
	if p1.tab != p2.tab || z.tab != p1.tab {
		t.Error("populations/samplers over the same (docs, alpha) do not share one CDF")
	}
	if p3 := NewPopulation(1_000, docs, alpha+0.1, 1); p3.tab == p1.tab {
		t.Error("distinct alpha returned the same CDF array")
	}
	// The memoized array must hold exactly what direct computation yields.
	sum := 0.0
	ref := make([]float64, docs)
	for i := 0; i < docs; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		ref[i] = sum
	}
	for i := range ref {
		if got := p1.tab.cdf[i]; got != ref[i]/sum {
			t.Fatalf("cdf[%d] = %v, want %v", i, got, ref[i]/sum)
		}
	}
	// Streams from equal parameters are byte-identical regardless of how
	// warm the cache was when their populations were built.
	s1 := p1.Stream(0, 1)
	s2 := NewPopulation(1_000, docs, alpha, 1).Stream(0, 1)
	for i := 0; i < 10_000; i++ {
		if a, b := s1.Next(), s2.Next(); a != b {
			t.Fatalf("streams diverged at request %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestZipfGuideMatchesFullSearch pins the guided draw to the full binary
// search it replaced, so the document stream cannot depend on the guide.
// Every CDF shape the catalogue and E18 build is probed at each guide
// boundary j/guideSize, at each CDF value, at the floating-point
// neighbours of both, and on 10^6 random draws; a few degenerate shapes
// (uniform, whose CDF values are themselves guide boundaries, and a
// one-document set) ride along.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	type shape struct {
		alpha float64
		n     int
	}
	var shapes []shape
	for _, alpha := range []float64{0.99, 1.01, 1.2} {
		for _, n := range []int{1024, 4096, 8192, 16384} {
			shapes = append(shapes, shape{alpha, n})
		}
	}
	shapes = append(shapes, shape{0, 8}, shape{0, 4096}, shape{0.75, 50}, shape{2, 1})
	for _, sh := range shapes {
		tab := zipfCDF(sh.alpha, sh.n)
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return // outside Float64's range
			}
			if got, want := tab.search(u), sort.SearchFloat64s(tab.cdf, u); got != want {
				t.Fatalf("alpha %v, n %d, u %v: guided search %d, full search %d", sh.alpha, sh.n, u, got, want)
			}
		}
		around := func(u float64) {
			check(math.Nextafter(u, math.Inf(-1)))
			check(u)
			check(math.Nextafter(u, math.Inf(1)))
		}
		for j := 0; j <= guideSize; j++ {
			around(float64(j) / guideSize)
		}
		for _, c := range tab.cdf {
			around(c)
		}
		rng := rand.New(rand.NewSource(int64(sh.n)))
		for i := 0; i < 1_000_000; i++ {
			check(rng.Float64())
		}
	}
}

// TestZipfDrawsAllocateNothing pins the steady state of a cell's request
// generator: once the shared table exists, drawing from a stream or a
// sampler allocates nothing.
func TestZipfDrawsAllocateNothing(t *testing.T) {
	s := NewPopulation(200_000, 16384, 0.99, 1).Stream(0, 64)
	z := NewZipf(rand.New(rand.NewSource(1)), 0.99, 16384)
	if allocs := testing.AllocsPerRun(1000, func() { s.Next(); z.Next() }); allocs != 0 {
		t.Errorf("a draw allocates %.2f times, want 0", allocs)
	}
}

func TestZipfSkewsTowardLowRanks(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 0.9, 100)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] || counts[0] <= counts[99] {
		t.Fatalf("rank 0 (%d) not hotter than mid (%d) / tail (%d)", counts[0], counts[50], counts[99])
	}
}

func TestZipfHigherAlphaMoreLocality(t *testing.T) {
	top10 := func(alpha float64) float64 {
		z := NewZipf(rand.New(rand.NewSource(1)), alpha, 1000)
		hot := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if z.Next() < 100 {
				hot++
			}
		}
		return float64(hot) / n
	}
	if !(top10(0.9) > top10(0.5) && top10(0.5) > top10(0.25)) {
		t.Fatal("locality not monotonic in alpha")
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 0.75, 50)
	sum := 0.0
	for i := 0; i < 50; i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(50) != 0 {
		t.Fatal("out-of-range prob not zero")
	}
	if z.N() != 50 {
		t.Fatal("N wrong")
	}
}

func TestMixRespectsWeights(t *testing.T) {
	m := NewMix(rand.New(rand.NewSource(1)), []RequestClass{
		{Name: "a", Weight: 9},
		{Name: "b", Weight: 1},
	})
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[m.Next().Name]++
	}
	if counts["a"] < 8700 || counts["a"] > 9300 {
		t.Fatalf("class a drawn %d of 10000, want ~9000", counts["a"])
	}
}

func TestMixPanicsOnBadInput(t *testing.T) {
	check := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		fn()
	}
	check(func() { NewMix(rand.New(rand.NewSource(1)), nil) })
	check(func() {
		NewMix(rand.New(rand.NewSource(1)), []RequestClass{{Name: "x", Weight: 0}})
	})
	check(func() { NewZipf(rand.New(rand.NewSource(1)), 1, 0) })
}

func TestRUBiSClassesDivergent(t *testing.T) {
	cls := RUBiSClasses()
	if len(cls) < 5 {
		t.Fatal("too few RUBiS classes")
	}
	var min, max = cls[0].CPU, cls[0].CPU
	for _, c := range cls {
		if c.CPU < min {
			min = c.CPU
		}
		if c.CPU > max {
			max = c.CPU
		}
	}
	// Fig 8 depends on divergent per-request resource usage.
	if max < 20*min {
		t.Fatalf("CPU divergence only %vx", max/min)
	}
}

// Property: Next always returns a valid rank and the distribution is
// monotonically non-increasing in expectation (checked coarsely).
func TestPropertyZipfRange(t *testing.T) {
	f := func(alphaSel, nSel uint8, seed int64) bool {
		alpha := float64(alphaSel%20) / 10
		n := int(nSel)%200 + 1
		z := NewZipf(rand.New(rand.NewSource(seed)), alpha, n)
		for i := 0; i < 200; i++ {
			r := z.Next()
			if r < 0 || r >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyTailSizes(t *testing.T) {
	sizes := HeavyTailSizes(10000, 1<<10, 1<<20, 1.2)
	if len(sizes) != 10000 {
		t.Fatal("wrong count")
	}
	var small, big int
	var total int64
	for _, s := range sizes {
		if s < 1<<10 || s > 1<<20 {
			t.Fatalf("size %d out of bounds", s)
		}
		total += s
		if s < 16<<10 {
			small++
		}
		if s > 96<<10 {
			big++
		}
	}
	if small < 5000 {
		t.Fatalf("only %d small documents; body not heavy at the bottom", small)
	}
	if big < 10 {
		t.Fatalf("only %d documents above 96KiB; tail missing", big)
	}
	// Deterministic.
	again := HeavyTailSizes(10000, 1<<10, 1<<20, 1.2)
	for i := range sizes {
		if sizes[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestHeavyTailSizesPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	HeavyTailSizes(0, 1, 2, 1)
}
