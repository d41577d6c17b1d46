package dyncache

import (
	"testing"
	"time"
)

func quickCfg(s Scheme) Config {
	cfg := DefaultConfig(s)
	cfg.Measure = time.Second
	return cfg
}

func TestRunProducesTraffic(t *testing.T) {
	for _, s := range Schemes {
		st, err := Run(quickCfg(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if st.Requests == 0 || st.TPS <= 0 {
			t.Fatalf("%v: no traffic: %+v", s, st)
		}
		if st.CoherentHits+st.Renders != st.Requests {
			t.Fatalf("%v: outcomes don't sum: %+v", s, st)
		}
	}
}

func TestNoCacheNeverHits(t *testing.T) {
	st, err := Run(quickCfg(NoCache))
	if err != nil {
		t.Fatal(err)
	}
	if st.CoherentHits != 0 || st.StaleServed != 0 {
		t.Fatalf("no-cache served from cache: %+v", st)
	}
}

func TestRDMACheckIsStronglyCoherent(t *testing.T) {
	// The headline property: the RDMA validation scheme never serves a
	// stale response, even with hundreds of updates per second.
	st, err := Run(quickCfg(RDMACheck))
	if err != nil {
		t.Fatal(err)
	}
	// Staleness is bounded by updates landing inside the in-flight
	// validation read (microseconds): at most a handful per million.
	if st.StaleServed*10000 > st.CoherentHits {
		t.Fatalf("rdma-check served %d stale of %d hits; beyond the in-flight window",
			st.StaleServed, st.CoherentHits)
	}
	if st.CoherentHits == 0 {
		t.Fatal("rdma-check never hit its cache")
	}
}

func TestTTLServesStaleUnderUpdates(t *testing.T) {
	// The baseline's flaw: with a sufficiently hot update rate, TTL-based
	// caching serves stale data.
	st, err := Run(quickCfg(TTLCache))
	if err != nil {
		t.Fatal(err)
	}
	if st.StaleServed == 0 {
		t.Fatal("TTL caching under heavy updates served no stale responses; model broken")
	}
}

func TestCachingBeatsNoCache(t *testing.T) {
	no, err := Run(quickCfg(NoCache))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{TTLCache, RDMACheck} {
		st, err := Run(quickCfg(s))
		if err != nil {
			t.Fatal(err)
		}
		if st.TPS <= no.TPS {
			t.Fatalf("%v TPS %.0f not above no-cache %.0f", s, st.TPS, no.TPS)
		}
	}
}

func TestRDMACheckNearTTLThroughput(t *testing.T) {
	// Strong coherence should cost only microseconds per hit: within a
	// modest factor of TTL's (incoherent) throughput.
	ttl, err := Run(quickCfg(TTLCache))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Run(quickCfg(RDMACheck))
	if err != nil {
		t.Fatal(err)
	}
	if rc.TPS < 0.5*ttl.TPS {
		t.Fatalf("rdma-check TPS %.0f below half of TTL %.0f", rc.TPS, ttl.TPS)
	}
}

func TestZeroUpdatesMeansNoInvalidations(t *testing.T) {
	cfg := quickCfg(RDMACheck)
	cfg.UpdatesPerSec = 0
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After warm-up, every popular document should be a validated hit.
	if st.CoherentHits == 0 || st.StaleServed != 0 {
		t.Fatalf("static content should hit coherently: %+v", st)
	}
	hitRate := float64(st.CoherentHits) / float64(st.Requests)
	if hitRate < 0.8 {
		t.Fatalf("hit rate %.2f too low for static content", hitRate)
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Run(quickCfg(RDMACheck))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(RDMACheck))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestSchemeString(t *testing.T) {
	if NoCache.String() != "no-cache" || TTLCache.String() != "ttl" || RDMACheck.String() != "rdma-check" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Fatal("unknown scheme name")
	}
}
