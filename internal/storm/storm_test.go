package storm

import (
	"testing"
	"testing/quick"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

func deploy(seed int64, t Transport, dataNodes int) (*sim.Env, *Cluster) {
	env := sim.NewEnv(seed)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	client := cluster.NewNode(env, 0, 2, 256<<20)
	var dns []*cluster.Node
	for i := 1; i <= dataNodes; i++ {
		dns = append(dns, cluster.NewNode(env, i, 2, 256<<20))
	}
	return env, New(nw, dns, Options{Transport: t, Client: client})
}

func runQuery(t *testing.T, tr Transport, total int, sel Selector) Result {
	t.Helper()
	env, c := deploy(1, tr, 4)
	defer env.Shutdown()
	var res Result
	env.Go("driver", func(p *sim.Proc) {
		if err := c.Load(p, total); err != nil {
			t.Error(err)
			return
		}
		var err error
		res, err = c.Query(p, sel)
		if err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQueryReturnsExactMatches(t *testing.T) {
	for _, tr := range []Transport{OverTCP, OverDDSS} {
		res := runQuery(t, tr, 1000, Selector{Modulo: 10, Remainder: 3})
		if res.Records != 100 {
			t.Fatalf("%v: got %d records, want 100", tr, res.Records)
		}
		if res.Bytes != 100*RecordSize {
			t.Fatalf("%v: got %d bytes", tr, res.Bytes)
		}
	}
}

func TestResultsIdenticalAcrossTransports(t *testing.T) {
	// Both configurations must produce byte-identical result sets.
	sel := Selector{Modulo: 7, Remainder: 2}
	a := runQuery(t, OverTCP, 2000, sel)
	b := runQuery(t, OverDDSS, 2000, sel)
	if a.Records != b.Records || a.Checksum != b.Checksum {
		t.Fatalf("transports disagree: TCP %d/%d vs DDSS %d/%d",
			a.Records, a.Checksum, b.Records, b.Checksum)
	}
}

func TestSelectAllAndNone(t *testing.T) {
	all := runQuery(t, OverDDSS, 500, Selector{Modulo: 1})
	if all.Records != 500 {
		t.Fatalf("select-all got %d", all.Records)
	}
	none := runQuery(t, OverDDSS, 500, Selector{Modulo: 501, Remainder: 500})
	if none.Records != 0 {
		t.Fatalf("select-none got %d", none.Records)
	}
}

func TestDDSSFasterThanTCP(t *testing.T) {
	// Fig 3b's claim: the DDSS build wins, and the gap is in the
	// double-digit percent range for scan-plus-transfer queries.
	sel := Selector{Modulo: 3} // ~1/3 selectivity
	tcp := runQuery(t, OverTCP, 10000, sel)
	dd := runQuery(t, OverDDSS, 10000, sel)
	if dd.Elapsed >= tcp.Elapsed {
		t.Fatalf("STORM-DDSS %v not faster than STORM %v", dd.Elapsed, tcp.Elapsed)
	}
	improvement := float64(tcp.Elapsed-dd.Elapsed) / float64(dd.Elapsed) * 100
	if improvement < 5 {
		t.Fatalf("improvement only %.1f%%; expected double digits", improvement)
	}
}

func TestImprovementGrowsWithRecords(t *testing.T) {
	sel := Selector{Modulo: 3}
	gap := func(n int) time.Duration {
		return runQuery(t, OverTCP, n, sel).Elapsed - runQuery(t, OverDDSS, n, sel).Elapsed
	}
	if gap(10000) <= gap(1000) {
		t.Fatal("absolute gap should grow with record count")
	}
}

func TestQueryBeforeLoadFails(t *testing.T) {
	env, c := deploy(1, OverTCP, 2)
	defer env.Shutdown()
	env.Go("driver", func(p *sim.Proc) {
		if _, err := c.Query(p, Selector{Modulo: 2}); err == nil {
			t.Error("query before load succeeded")
		}
		if err := c.Load(p, 100); err != nil {
			t.Error(err)
		}
		if err := c.Load(p, 100); err == nil {
			t.Error("double load succeeded")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedQueries(t *testing.T) {
	env, c := deploy(1, OverDDSS, 3)
	defer env.Shutdown()
	env.Go("driver", func(p *sim.Proc) {
		if err := c.Load(p, 900); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			res, err := c.Query(p, Selector{Modulo: 2, Remainder: i % 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Records != 450 {
				t.Fatalf("query %d: %d records", i, res.Records)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTransportString(t *testing.T) {
	if OverTCP.String() != "STORM" || OverDDSS.String() != "STORM-DDSS" {
		t.Fatal("transport names wrong")
	}
}

// Property: for any modulo predicate, both transports return the exact
// arithmetic match count.
func TestPropertyMatchCount(t *testing.T) {
	f := func(mod uint8, total uint8, trSel bool) bool {
		m := int(mod)%9 + 1
		n := (int(total) + 1) * 4
		tr := OverTCP
		if trSel {
			tr = OverDDSS
		}
		env, c := deploy(5, tr, 3)
		defer env.Shutdown()
		want := 0
		for id := 0; id < n; id++ {
			if id%m == 0 {
				want++
			}
		}
		got := -1
		env.Go("driver", func(p *sim.Proc) {
			if err := c.Load(p, n); err != nil {
				return
			}
			res, err := c.Query(p, Selector{Modulo: m})
			if err != nil {
				return
			}
			got = res.Records
		})
		if err := env.Run(); err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
