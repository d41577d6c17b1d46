package coopcache

import (
	"math/bits"
	"testing"
	"time"

	"ngdc/internal/fabric"
	"ngdc/internal/trace"
	"ngdc/internal/workload"
)

// quickCfg shortens the experiment so unit tests stay fast.
func quickCfg(scheme Scheme, proxies int, fileSize int64) Config {
	cfg := DefaultConfig(scheme, proxies, fileSize)
	cfg.Warmup = 200 * time.Millisecond
	cfg.Measure = 600 * time.Millisecond
	return cfg
}

func TestRunProducesTraffic(t *testing.T) {
	for _, scheme := range Schemes {
		st, err := Run(quickCfg(scheme, 2, 32<<10))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if st.Requests == 0 || st.TPS <= 0 {
			t.Fatalf("%v: no traffic: %+v", scheme, st)
		}
		if st.LocalHits+st.RemoteHits+st.Misses != st.Requests {
			t.Fatalf("%v: outcome counts don't sum: %+v", scheme, st)
		}
	}
}

func TestCooperativeSchemesBeatAC(t *testing.T) {
	ac, err := Run(quickCfg(AC, 2, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{BCC, CCWR, MTACC, HYBCC} {
		st, err := Run(quickCfg(scheme, 2, 32<<10))
		if err != nil {
			t.Fatal(err)
		}
		if st.TPS <= ac.TPS {
			t.Fatalf("%v TPS %.0f not above AC %.0f", scheme, st.TPS, ac.TPS)
		}
	}
}

func TestCCWREliminatesRedundancy(t *testing.T) {
	bcc, err := Run(quickCfg(BCC, 4, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	ccwr, err := Run(quickCfg(CCWR, 4, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if ccwr.DuplicateBytes != 0 {
		t.Fatalf("CCWR left %d duplicate bytes", ccwr.DuplicateBytes)
	}
	if bcc.DuplicateBytes == 0 {
		t.Fatal("BCC produced no duplicates; redundancy model broken")
	}
}

func TestNonRedundantSchemesWinForLargeFiles(t *testing.T) {
	// Fig 6's headline: with large files and a working set beyond one
	// node, eliminating duplication (CCWR) and aggregating tiers (MTACC)
	// beats BCC.
	bcc, err := Run(quickCfg(BCC, 2, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{CCWR, MTACC} {
		st, err := Run(quickCfg(scheme, 2, 64<<10))
		if err != nil {
			t.Fatal(err)
		}
		if st.TPS <= bcc.TPS {
			t.Fatalf("%v TPS %.0f not above BCC %.0f for 64k files", scheme, st.TPS, bcc.TPS)
		}
	}
}

func TestHybridTracksBestScheme(t *testing.T) {
	for _, fs := range []int64{8 << 10, 64 << 10} {
		var best float64
		for _, scheme := range []Scheme{BCC, CCWR, MTACC} {
			st, err := Run(quickCfg(scheme, 2, fs))
			if err != nil {
				t.Fatal(err)
			}
			if st.TPS > best {
				best = st.TPS
			}
		}
		hy, err := Run(quickCfg(HYBCC, 2, fs))
		if err != nil {
			t.Fatal(err)
		}
		if hy.TPS < 0.8*best {
			t.Fatalf("HYBCC TPS %.0f far below best scheme %.0f at %dk", hy.TPS, best, fs>>10)
		}
	}
}

func TestHitRateOrdering(t *testing.T) {
	// Aggregate capacity ordering must show up in hit rates:
	// AC <= BCC <= CCWR <= MTACC (within tolerance).
	rates := map[Scheme]float64{}
	for _, scheme := range []Scheme{AC, BCC, CCWR, MTACC} {
		st, err := Run(quickCfg(scheme, 2, 32<<10))
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests == 0 {
			t.Fatalf("%v served no request", scheme)
		}
		rates[scheme] = float64(st.LocalHits+st.RemoteHits) / float64(st.Requests)
	}
	if rates[BCC] < rates[AC] {
		t.Fatalf("BCC hit rate %.2f below AC %.2f", rates[BCC], rates[AC])
	}
	if rates[CCWR] < rates[BCC] {
		t.Fatalf("CCWR hit rate %.2f below BCC %.2f", rates[CCWR], rates[BCC])
	}
	if rates[MTACC] < rates[CCWR] {
		t.Fatalf("MTACC hit rate %.2f below CCWR %.2f", rates[MTACC], rates[CCWR])
	}
}

func TestMoreProxiesMoreThroughput(t *testing.T) {
	two, err := Run(quickCfg(CCWR, 2, 16<<10))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Run(quickCfg(CCWR, 8, 16<<10))
	if err != nil {
		t.Fatal(err)
	}
	if eight.TPS <= two.TPS {
		t.Fatalf("8 proxies TPS %.0f not above 2 proxies %.0f", eight.TPS, two.TPS)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(quickCfg(HYBCC, 2, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(HYBCC, 2, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

// TestRemoteHitCountedOnHolderNIC: the response of a remote fetch is
// serialized by the holder's NIC and shows in the holder's traced
// statistics. An application server has no clients, so under MTACC it
// transmits only as a holder.
func TestRemoteHitCountedOnHolderNIC(t *testing.T) {
	cfg := quickCfg(MTACC, 2, 32<<10)
	reg := trace.NewRegistry()
	cfg.Trace = reg
	dc := Build(cfg)
	st, err := dc.RunLoad()
	if err != nil {
		t.Fatal(err)
	}
	if st.RemoteHits == 0 {
		t.Fatalf("no remote hits to account: %+v", st)
	}
	ser := fabric.DefaultParams().IBTxTime(int(cfg.FileSize))
	var ops int64
	for _, cn := range dc.nodes[cfg.Proxies:] {
		nic := reg.NIC(cn.node.ID)
		if nic.TxBusy != time.Duration(nic.TxOps)*ser {
			t.Errorf("app server %d: TxBusy %v for %d transmits of %v each", cn.node.ID, nic.TxBusy, nic.TxOps, ser)
		}
		ops += nic.TxOps
	}
	if ops == 0 {
		t.Fatal("the application servers held documents and served remote hits, but their NICs record no transmit")
	}
}

func TestSchemeString(t *testing.T) {
	want := []string{"AC", "BCC", "CCWR", "MTACC", "HYBCC"}
	for i, s := range Schemes {
		if s.String() != want[i] {
			t.Fatalf("scheme %d = %q", i, s.String())
		}
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Fatal("unknown scheme name")
	}
}

// Property: the directory never points at a node that doesn't hold the
// document once the run settles (spot-checked at end of run). HYBCC's
// replica copies stay out of the directory, so every holder it names
// holds the document in its main cache.
func TestDirectoryConsistencyAfterRun(t *testing.T) {
	for _, scheme := range []Scheme{BCC, CCWR, MTACC, HYBCC} {
		cfg := quickCfg(scheme, 3, 16<<10)
		dc := Build(cfg)
		if _, err := dc.RunLoad(); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for doc := 0; doc < cfg.docCount(); doc++ {
			for w, word := range dc.dirHolders(doc) {
				for ; word != 0; word &= word - 1 {
					id := w*64 + bits.TrailingZeros64(word)
					if id >= len(dc.nodes) || !dc.nodes[id].cache.Contains(doc) {
						t.Fatalf("%v: directory says node %d holds doc %d but it doesn't", scheme, id, doc)
					}
				}
			}
		}
	}
}

func TestHeterogeneousSizesHybridWins(t *testing.T) {
	// With a heavy-tail size mix in one workload, HYBCC's per-document
	// policy (replicate small hot files, single-copy the big ones) should
	// match or beat every single-policy scheme.
	mixCfg := func(scheme Scheme) Config {
		cfg := quickCfg(scheme, 2, 16<<10)
		cfg.DocSizes = workload.HeavyTailSizes(1024, 4<<10, 256<<10, 1.1)
		return cfg
	}
	var best float64
	var bestScheme Scheme
	for _, scheme := range []Scheme{BCC, CCWR, MTACC} {
		st, err := Run(mixCfg(scheme))
		if err != nil {
			t.Fatal(err)
		}
		if st.TPS > best {
			best, bestScheme = st.TPS, scheme
		}
	}
	hy, err := Run(mixCfg(HYBCC))
	if err != nil {
		t.Fatal(err)
	}
	if hy.TPS < 0.9*best {
		t.Fatalf("HYBCC TPS %.0f below best single scheme %v %.0f on mixed sizes", hy.TPS, bestScheme, best)
	}
	if hy.Requests == 0 {
		t.Fatal("no traffic")
	}
}

func TestHeterogeneousSizesServeCorrectCosts(t *testing.T) {
	cfg := quickCfg(AC, 2, 16<<10)
	cfg.DocSizes = []int64{4 << 10, 128 << 10}
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 {
		t.Fatal("no traffic with explicit sizes")
	}
}
