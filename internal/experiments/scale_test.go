package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ngdc/internal/faults"
	"ngdc/internal/verbs"
)

func TestScaleCellSanity(t *testing.T) {
	res, err := RunScaleCell(ScaleConfig{Nodes: 16, Clients: 5000, Requests: 2000, Docs: 512, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.FrontEnds != 4 || res.StoreNodes != 2 || res.CacheNodes != 10 {
		t.Fatalf("tier split = %d/%d/%d, want 4/10/2", res.FrontEnds, res.CacheNodes, res.StoreNodes)
	}
	if res.Requests != 2000 || res.Hits+res.Misses != res.Requests {
		t.Fatalf("requests %d = hits %d + misses %d violated", res.Requests, res.Hits, res.Misses)
	}
	if res.Hits == 0 || res.Misses == 0 {
		t.Fatalf("want both hits and misses, got %d/%d", res.Hits, res.Misses)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v", res.P50, res.P99)
	}
	if res.ReqsPerSec <= 0 || res.Events == 0 {
		t.Fatalf("throughput/events empty: %v reqs/s, %d events", res.ReqsPerSec, res.Events)
	}
	if res.ConnBytesAvg <= 0 {
		t.Fatalf("no connection state accounted")
	}
}

// TestScaleCellDeterministic checks one cell reproduces identically, and
// that a mini sweep through the parallel harness is byte-identical at
// -parallel 1 and 4 (the same discipline the golden catalogue enforces).
func TestScaleCellDeterministic(t *testing.T) {
	cfg := ScaleConfig{Nodes: 24, Clients: 10_000, Requests: 3000, Docs: 1024, Seed: 7,
		Transport: verbs.PooledTransport()}
	a, err := RunScaleCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScaleCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Wall, b.Wall = 0, 0 // host time is the one legitimately varying field
	if a != b {
		t.Fatalf("same config diverged:\n%+v\n%+v", a, b)
	}

	sweep := func(parallel int) []ScaleResult {
		cells := []ScaleConfig{
			{Nodes: 16, Clients: 4000, Requests: 1200, Docs: 512},
			{Nodes: 16, Clients: 4000, Requests: 1200, Docs: 512, Transport: verbs.PooledTransport()},
			{Nodes: 32, Clients: 4000, Requests: 1200, Docs: 512},
			{Nodes: 32, Clients: 4000, Requests: 1200, Docs: 512, Transport: verbs.PooledTransport()},
		}
		res, err := sweep(Options{Parallel: parallel}, cells, func(c ScaleConfig, o Options) (ScaleResult, error) {
			c.Seed = o.seed()
			r, err := RunScaleCell(c)
			r.Wall = 0
			return r, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, par := sweep(1), sweep(4)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("cell %d differs between -parallel 1 and 4:\n%+v\n%+v", i, serial[i], par[i])
		}
	}
}

// TestScaleConnStateSublinear is the sublinearity gate of the issue: in
// pooled mode, per-node connection memory at 1024 nodes must be < 2× its
// 64-node value, while RC-per-pair grows by a large factor.
func TestScaleConnStateSublinear(t *testing.T) {
	run := func(nodes int, tc verbs.TransportConfig) ScaleResult {
		res, err := RunScaleCell(ScaleConfig{
			Nodes: nodes, Transport: tc,
			Clients: 20_000, Requests: 400 * frontEnds(nodes), Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rc64 := run(64, verbs.TransportConfig{})
	rc1024 := run(1024, verbs.TransportConfig{})
	p64 := run(64, verbs.PooledTransport())
	p1024 := run(1024, verbs.PooledTransport())

	if ratio := p1024.ConnBytesAvg / p64.ConnBytesAvg; ratio >= 2 {
		t.Errorf("pooled conn bytes/node grew %.2fx from 64 to 1024 nodes, want < 2x (%.0f -> %.0f)",
			ratio, p64.ConnBytesAvg, p1024.ConnBytesAvg)
	}
	if ratio := rc1024.ConnBytesAvg / rc64.ConnBytesAvg; ratio < 4 {
		t.Errorf("rc conn bytes/node grew only %.2fx from 64 to 1024 nodes, expected near-linear growth", ratio)
	}
	if p1024.UDOps == 0 {
		t.Errorf("pooled 1024-node run exercised no datagram path")
	}
	if rc1024.CacheMisses == 0 {
		t.Errorf("rc 1024-node run never thrashed the connection context cache")
	}

	// The RDMAvisor crossover: fully-connected wins at testbed scale
	// (every conn fits the NIC context cache, so established transports
	// are free and pooled pays its datagram overhead for nothing); at
	// 1024 nodes RC thrashes the context cache on every front-end and
	// the pooled hybrid takes the lead.
	if rc64.P50 >= p64.P50 {
		t.Errorf("at 64 nodes rc p50 %v should beat pooled p50 %v", rc64.P50, p64.P50)
	}
	if p1024.P50 >= rc1024.P50 {
		t.Errorf("at 1024 nodes pooled p50 %v should beat rc p50 %v", p1024.P50, rc1024.P50)
	}
}

// TestScaleExactSizingPinned pins cells byte-for-byte. The first three
// were captured from the unbounded (pre-capacity-bounding) cache tier:
// with exact slab sizing (CacheFrac 0) every document fits its home
// node, the churn machinery never fires, and the cell must reproduce
// the old numbers — same hits, same latencies, same engine event count.
// The rest pin the whole result (%+v minus Wall, Events included) of a
// capacity-churn cell, a spill+rebalance hotspot cell, a crash-plan
// cell and a partitioned-rebalancer cell, captured before the tier
// moved into coopcache.Tier: every costed op must still be issued at
// the same decision instant. The two spill cells have run one event per
// cache node fewer (96 643 → 96 603, 21 379 → 21 369) since demotions
// became chains: those were the start events of the per-node demotion
// worker processes.
func TestScaleExactSizingPinned(t *testing.T) {
	mustPlan := func(spec string) *faults.Plan {
		plan, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	cases := []struct {
		name string
		cfg  ScaleConfig
		want ScaleResult
		// whole, when set, is the full %+v of the result with Wall zeroed
		// (the cell churns, so the exact-sizing checks do not apply).
		whole string
	}{
		{
			name: "rc-16",
			cfg:  ScaleConfig{Nodes: 16, Clients: 5000, Requests: 2000, Docs: 512, Seed: 3},
			want: ScaleResult{Hits: 1631, Misses: 369, Elapsed: 10031023, P50: 17283, P99: 31366, Events: 16007},
		},
		{
			name: "pooled-24",
			cfg: ScaleConfig{Nodes: 24, Transport: verbs.PooledTransport(),
				Clients: 10_000, Requests: 3000, Docs: 1024, Seed: 7},
			want: ScaleResult{Hits: 2361, Misses: 639, Elapsed: 10845985, P50: 17283, P99: 51858, Events: 24455},
		},
		{
			name: "rc-64",
			cfg:  ScaleConfig{Nodes: 64, Clients: 20_000, Requests: 6400, Seed: 5},
			want: ScaleResult{Hits: 3989, Misses: 2411, Elapsed: 9240045, P50: 17283, P99: 33314, Events: 57550},
		},
		{
			name: "churn-pooled-64",
			cfg: ScaleConfig{Nodes: 64, Clients: 100_000, Requests: 2400, Docs: 1024,
				CacheFrac: 0.1, Seed: 2, Transport: verbs.PooledTransport()},
			whole: "{Nodes:64 FrontEnds:16 CacheNodes:40 StoreNodes:8 Transport:pooled Requests:2400 Hits:1133 Misses:1267 Elapsed:4.908999ms P50:33.358µs P99:61.358µs ReqsPerSec:488898.04214667797 ConnBytesAvg:101120 ConnBytesMax:393216 Establishes:121 Evictions:0 UDOps:7624 CacheMisses:0 CacheFrac:0.1 ZipfAlpha:0.99 CacheSlots:82 CacheEvictions:1103 Invalidations:1171 StaleReads:51 DeadFallbacks:0 Rollbacks:20 CacheEvictPerSec:224689.39186991076 SpillEnabled:false SpillSlots:0 Spills:0 SpillHits:0 SpillDrops:0 SpillRedirectLost:0 SpillReclaims:0 SpillHitPerSec:0 RebalanceOn:false DirMaxOverMean:3.1996692848284414 DirMigrations:0 DirSplits:0 Events:25848 Wall:0s}",
		},
		{
			name: "spill-rebalance-hot-64",
			cfg: ScaleConfig{Nodes: 64, Clients: 100_000, Requests: 9600, Docs: 2048,
				CacheFrac: 0.05, ZipfAlpha: 1.2, Spill: true, Rebalance: true, Seed: 4},
			whole: "{Nodes:64 FrontEnds:16 CacheNodes:40 StoreNodes:8 Transport:rc Requests:9600 Hits:7286 Misses:2314 Elapsed:13.010674ms P50:17.283µs P99:39.358µs ReqsPerSec:737855.7021719244 ConnBytesAvg:1.180416e+06 ConnBytesMax:1351680 Establishes:1537 Evictions:0 UDOps:0 CacheMisses:0 CacheFrac:0.05 ZipfAlpha:1.2 CacheSlots:80 CacheEvictions:2139 Invalidations:2169 StaleReads:170 DeadFallbacks:0 Rollbacks:7 CacheEvictPerSec:164403.4736401819 SpillEnabled:true SpillSlots:120 Spills:2101 SpillHits:2608 SpillDrops:0 SpillRedirectLost:36 SpillReclaims:1991 SpillHitPerSec:200450.79909003945 RebalanceOn:true DirMaxOverMean:2.285368070281733 DirMigrations:21 DirSplits:16 Events:96603 Wall:0s}",
		},
		{
			name: "spill-crash-16",
			cfg: ScaleConfig{Nodes: 16, Clients: 5000, Requests: 2000, Docs: 512,
				CacheFrac: 0.1, Spill: true, Seed: 3, Faults: mustPlan("crash@2ms node=3")},
			whole: "{Nodes:16 FrontEnds:4 CacheNodes:10 StoreNodes:2 Transport:rc Requests:2000 Hits:1104 Misses:896 Elapsed:10.966498ms P50:17.283µs P99:33.633µs ReqsPerSec:182373.62556396765 ConnBytesAvg:245760 ConnBytesMax:294912 Establishes:93 Evictions:0 UDOps:0 CacheMisses:0 CacheFrac:0.1 ZipfAlpha:0.99 CacheSlots:44 CacheEvictions:627 Invalidations:565 StaleReads:8 DeadFallbacks:227 Rollbacks:0 CacheEvictPerSec:57174.13161430386 SpillEnabled:true SpillSlots:68 Spills:618 SpillHits:547 SpillDrops:5 SpillRedirectLost:4 SpillReclaims:550 SpillHitPerSec:49879.18659174515 RebalanceOn:false DirMaxOverMean:1.6111541440743609 DirMigrations:0 DirSplits:0 Events:21369 Wall:0s}",
		},
		{
			name: "rebalance-partition-16",
			cfg: ScaleConfig{Nodes: 16, Clients: 100_000, Requests: 4000, Docs: 2048,
				CacheFrac: 0.1, ZipfAlpha: 1.2, Rebalance: true, Seed: 2, Faults: mustPlan(rebalancerPartition)},
			whole: "{Nodes:16 FrontEnds:4 CacheNodes:10 StoreNodes:2 Transport:rc Requests:4000 Hits:2892 Misses:1108 Elapsed:24.019758ms P50:17.283µs P99:39.982µs ReqsPerSec:166529.5711971786 ConnBytesAvg:147456 ConnBytesMax:294912 Establishes:48 Evictions:0 UDOps:0 CacheMisses:0 CacheFrac:0.1 ZipfAlpha:1.2 CacheSlots:201 CacheEvictions:665 Invalidations:666 StaleReads:1 DeadFallbacks:0 Rollbacks:0 CacheEvictPerSec:27685.54121153094 SpillEnabled:false SpillSlots:0 Spills:0 SpillHits:0 SpillDrops:0 SpillRedirectLost:0 SpillReclaims:0 SpillHitPerSec:0 RebalanceOn:true DirMaxOverMean:2.0203588681849554 DirMigrations:2 DirSplits:2 Events:35382 Wall:0s}",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunScaleCell(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.whole != "" {
				res.Wall = 0
				if got := fmt.Sprintf("%+v", res); got != tc.whole {
					t.Errorf("pinned cell diverged:\n got %s\nwant %s", got, tc.whole)
				}
				return
			}
			if res.Hits != tc.want.Hits || res.Misses != tc.want.Misses ||
				res.Elapsed != tc.want.Elapsed || res.P50 != tc.want.P50 ||
				res.P99 != tc.want.P99 || res.Events != tc.want.Events {
				t.Errorf("exact-sized cell diverged from the unbounded-tier baseline:\n got hits=%d misses=%d elapsed=%v p50=%v p99=%v events=%d\nwant hits=%d misses=%d elapsed=%v p50=%v p99=%v events=%d",
					res.Hits, res.Misses, res.Elapsed, res.P50, res.P99, res.Events,
					tc.want.Hits, tc.want.Misses, tc.want.Elapsed, tc.want.P50, tc.want.P99, tc.want.Events)
			}
			if res.CacheEvictions != 0 || res.Invalidations != 0 || res.StaleReads != 0 || res.Rollbacks != 0 {
				t.Errorf("exact sizing churned: evict=%d inval=%d stale=%d roll=%d, want all 0",
					res.CacheEvictions, res.Invalidations, res.StaleReads, res.Rollbacks)
			}
			if res.CacheFrac != 1 || res.CacheSlots < int64(tc.cfg.Docs) {
				t.Errorf("exact sizing reported frac=%v slots=%d", res.CacheFrac, res.CacheSlots)
			}
		})
	}
}

// maxQueueDepth is the early-warning bound on any environment's pending
// events: six times the deepest queue ever measured (162, before E18's
// demotions were chains; 98 since), a tenth of the depth at which
// DESIGN.md says a tiered queue would pay for itself.
const maxQueueDepth = 1024

// checkQueueDepth fails when an environment's event-queue high-water
// mark leaves the regime the engine's plain heap was chosen for.
func checkQueueDepth(t *testing.T, what string, depth int) {
	t.Helper()
	if depth > maxQueueDepth {
		t.Errorf("%s: the event queue reached %d pending events, bound %d. The engine's queue is a plain 4-ary heap "+
			"because no workload has gone deeper than 98; DESIGN.md \"Engine internals\" has the criterion for bringing a "+
			"bucket tier back (a workload whose measured depth reaches 10^4) and the deep-queue numbers to re-measure "+
			"before this bound is raised", what, depth, maxQueueDepth)
	}
}

// TestScaleQueueDepthFollowsDriversNotNodes measures what the sweep's
// comments used to guess: how many events a cell keeps pending. An
// exact-sized cell never holds more than one per driver, whatever its
// node count. With Spill and Rebalance on, the demotion chains in flight
// and the rebalance tick add to the drivers' events: 93 here, 98 at
// e18-churn's 300 000 requests (162 while each cache node's demotions
// ran in a worker process, whose start events were the high-water mark).
// Request budgets are cut from the sweep's because the depth barely moves
// with them (64 at the full 8192-node cell).
func TestScaleQueueDepthFollowsDriversNotNodes(t *testing.T) {
	cases := []struct {
		name  string
		cfg   ScaleConfig
		bound int
		why   string
	}{
		{"rc-64", ScaleConfig{Nodes: 64, Clients: 100_000, Requests: 2400},
			16, "one per driver, 64 capped at the 16 front-ends"},
		{"pooled-1024", ScaleConfig{Nodes: 1024, Transport: verbs.PooledTransport(), Clients: 100_000, Requests: 5120},
			64, "one per driver"},
		{"pooled-4096", ScaleConfig{Nodes: 4096, Transport: verbs.PooledTransport(), Clients: 100_000, Requests: 10_240},
			64, "one per driver"},
		// e18-churn's cell at a tenth of its requests.
		{"spill-rebalance-256", ScaleConfig{Nodes: 256, Docs: 8192, CacheFrac: 0.1, Spill: true, Rebalance: true,
			Clients: 200_000, Requests: 30_000},
			98, "the 64 drivers, the demotion chains in flight and the rebalance tick"},
	}
	for _, tc := range cases {
		_, _, es, err := runScaleCell(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if es.MaxEventQueue > tc.bound {
			t.Errorf("%s: %d events pending at once, want ≤ %d (%s)", tc.name, es.MaxEventQueue, tc.bound, tc.why)
		}
		checkQueueDepth(t, tc.name, es.MaxEventQueue)
	}
}

// TestScaleCapacityChurn sweeps the capacity fraction on a fixed cell:
// hit count must be monotone non-decreasing in capacity, capacity
// evictions must fire exactly when the slabs are undersized, and every
// eviction must be matched by directory invalidation traffic.
func TestScaleCapacityChurn(t *testing.T) {
	fracs := []float64{0.1, 0.25, 0.5, 1}
	res := make([]ScaleResult, len(fracs))
	for i, f := range fracs {
		var err error
		res[i], err = RunScaleCell(ScaleConfig{
			Nodes: 64, Clients: 100_000, Requests: 2400, Docs: 1024,
			CacheFrac: f, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range res {
		if r.Hits+r.Misses != r.Requests {
			t.Fatalf("frac %v: hits %d + misses %d != requests %d", fracs[i], r.Hits, r.Misses, r.Requests)
		}
		if i > 0 {
			if r.Hits < res[i-1].Hits {
				t.Errorf("hit count not monotone in capacity: frac %v got %d hits, frac %v got %d",
					fracs[i], r.Hits, fracs[i-1], res[i-1].Hits)
			}
			if r.CacheSlots <= res[i-1].CacheSlots {
				t.Errorf("slots not monotone in capacity: frac %v got %d, frac %v got %d",
					fracs[i], r.CacheSlots, fracs[i-1], res[i-1].CacheSlots)
			}
		}
		if fracs[i] < 1 {
			if r.CacheEvictions == 0 {
				t.Errorf("frac %v: undersized slabs evicted nothing", fracs[i])
			}
			if r.Invalidations < r.CacheEvictions {
				t.Errorf("frac %v: %d evictions but only %d invalidations — victims left dangling in the directory",
					fracs[i], r.CacheEvictions, r.Invalidations)
			}
			if r.CacheEvictPerSec <= 0 {
				t.Errorf("frac %v: eviction rate not derived", fracs[i])
			}
		} else if r.CacheEvictions != 0 || r.Invalidations != 0 {
			t.Errorf("full-capacity cell churned: evict=%d inval=%d", r.CacheEvictions, r.Invalidations)
		}
	}
}

// TestScaleChurnDeterministic extends the determinism gate to the churn
// machinery: a capacity-bounded cell with races (stale reads, lost
// publishes) reproduces identically.
func TestScaleChurnDeterministic(t *testing.T) {
	cfg := ScaleConfig{Nodes: 64, Clients: 100_000, Requests: 2400, Docs: 1024,
		CacheFrac: 0.1, Seed: 2, Transport: verbs.PooledTransport()}
	a, err := RunScaleCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScaleCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Wall, b.Wall = 0, 0
	if a != b {
		t.Fatalf("churning cell diverged:\n%+v\n%+v", a, b)
	}
}

// TestScaleDeadHolderFallback crashes a cache node mid-run (node 3 is a
// cache-tier node under the i%8 layout) in a capacity-bounded cell: hit
// reads against the crashed holder and lookups against its directory
// shard must degrade to the storage path — never fail the cell — and
// the dead directory entries must be invalidated.
func TestScaleDeadHolderFallback(t *testing.T) {
	plan, err := faults.Parse("crash@2ms node=3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScaleCell(ScaleConfig{
		Nodes: 16, Clients: 5000, Requests: 2000, Docs: 512,
		CacheFrac: 0.25, Seed: 3, Faults: plan,
	})
	if err != nil {
		t.Fatalf("cell failed instead of degrading: %v", err)
	}
	if res.Hits+res.Misses != res.Requests {
		t.Fatalf("requests lost under faults: %d + %d != %d", res.Hits, res.Misses, res.Requests)
	}
	if res.Hits == 0 {
		t.Error("no hits at all — surviving cache nodes should still serve")
	}
	if res.DeadFallbacks == 0 {
		t.Error("crashed node never triggered a dead-peer fallback")
	}
	if res.Invalidations == 0 {
		t.Error("no invalidations — dead/evicted entries left in the directory")
	}
	if res.CacheEvictions == 0 {
		t.Error("capacity-bounded cell under faults evicted nothing")
	}
}

// TestScaleSpillHitRateGate is the headline acceptance gate of the
// cooperative victim tier: at CacheFrac 0.05 under the churn-heavy
// α=1.01 workload, spill+rebalance must lift the hit rate by ≥ 8pp over
// the drop-on-evict baseline without making p99 worse. (The p99 bar is
// met with room: converting storage round-trips into one-hop spill
// reads takes queueing pressure off the storage tier.)
func TestScaleSpillHitRateGate(t *testing.T) {
	base := ScaleConfig{
		Nodes: 256, Transport: verbs.PooledTransport(),
		Clients: 1_000_000, Requests: 600 * frontEnds(256),
		ZipfAlpha: 1.01, CacheFrac: 0.05, Seed: 1,
	}
	off, err := RunScaleCell(base)
	if err != nil {
		t.Fatal(err)
	}
	onCfg := base
	onCfg.Spill, onCfg.Rebalance = true, true
	on, err := RunScaleCell(onCfg)
	if err != nil {
		t.Fatal(err)
	}
	hitPct := func(r ScaleResult) float64 { return float64(r.Hits) * 100 / float64(r.Requests) }
	if gain := hitPct(on) - hitPct(off); gain < 8 {
		t.Errorf("spill+rebalance lifted hit rate by only %.2fpp (%.2f%% -> %.2f%%), want >= 8pp",
			gain, hitPct(off), hitPct(on))
	}
	if on.P99 > off.P99 {
		t.Errorf("spill+rebalance regressed p99: %v -> %v", off.P99, on.P99)
	}
	if on.Spills == 0 || on.SpillHits == 0 || on.SpillReclaims == 0 {
		t.Errorf("victim tier idle: spills=%d hits=%d reclaims=%d", on.Spills, on.SpillHits, on.SpillReclaims)
	}
	if off.Spills != 0 || off.SpillHits != 0 || off.SpillSlots != 0 {
		t.Errorf("baseline cell spilled: %+v", off)
	}
}

// TestScaleRebalanceFlattensShardLoad is the imbalance gate: under the
// α=1.2 hotspot workload the hottest directory shard's load over the
// mean must drop by ≥ 2x with rebalancing on, and the flattening must
// come from actual bucket migrations/splits.
func TestScaleRebalanceFlattensShardLoad(t *testing.T) {
	base := ScaleConfig{
		Nodes: 256, Transport: verbs.PooledTransport(),
		Clients: 1_000_000, Requests: 600 * frontEnds(256),
		ZipfAlpha: 1.2, CacheFrac: 0.1, Seed: 1,
	}
	off, err := RunScaleCell(base)
	if err != nil {
		t.Fatal(err)
	}
	onCfg := base
	onCfg.Rebalance = true
	on, err := RunScaleCell(onCfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.DirMaxOverMean < 2*on.DirMaxOverMean {
		t.Errorf("rebalancing flattened shard load only %.2fx (%.2f -> %.2f), want >= 2x",
			off.DirMaxOverMean/on.DirMaxOverMean, off.DirMaxOverMean, on.DirMaxOverMean)
	}
	if on.DirMigrations+on.DirSplits == 0 {
		t.Error("rebalancing acted on no buckets")
	}
	if off.DirMigrations != 0 || off.DirSplits != 0 {
		t.Errorf("static directory migrated: mig=%d split=%d", off.DirMigrations, off.DirSplits)
	}
}

// TestScaleSpillRebalanceDeterministic extends the determinism gate to
// the new machinery: a cell with demotions and rebalance ticks
// reproduces identically, alone and through the parallel harness.
func TestScaleSpillRebalanceDeterministic(t *testing.T) {
	cfg := ScaleConfig{
		Nodes: 64, Clients: 100_000, Requests: 2400, Docs: 4096,
		CacheFrac: 0.05, ZipfAlpha: 1.2, Spill: true, Rebalance: true,
		Seed: 4, Transport: verbs.PooledTransport(),
	}
	a, err := RunScaleCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScaleCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Wall, b.Wall = 0, 0
	if a != b {
		t.Fatalf("spill+rebalance cell diverged:\n%+v\n%+v", a, b)
	}
	if a.Spills == 0 {
		t.Fatal("determinism cell exercised no demotions")
	}

	sweep := func(parallel int) []ScaleResult {
		cells := []ScaleConfig{
			{Nodes: 32, Clients: 50_000, Requests: 1600, Docs: 2048, CacheFrac: 0.05, Spill: true, Rebalance: true},
			{Nodes: 32, Clients: 50_000, Requests: 1600, Docs: 2048, CacheFrac: 0.05, Spill: true, Rebalance: true,
				Transport: verbs.PooledTransport()},
		}
		res, err := sweep(Options{Parallel: parallel}, cells, func(c ScaleConfig, o Options) (ScaleResult, error) {
			c.Seed = o.seed()
			r, err := RunScaleCell(c)
			r.Wall = 0
			return r, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, par := sweep(1), sweep(4)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("spill cell %d differs between -parallel 1 and 4:\n%+v\n%+v", i, serial[i], par[i])
		}
	}
}

// TestScaleSpillTargetCrash crashes a cache node mid-run in a
// spill-enabled cell — the crashed node is both a demotion issuer and a
// rack-neighbor spill target. Demotions against it must degrade to
// plain drops, reads against its spill residents must fall back to
// storage, and the cell must complete — which includes the tier's
// audit: the placement metadata comes out coherent (no lost or
// duplicated entries).
func TestScaleSpillTargetCrash(t *testing.T) {
	plan, err := faults.Parse("crash@2ms node=3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScaleCell(ScaleConfig{
		Nodes: 16, Clients: 5000, Requests: 2000, Docs: 512,
		CacheFrac: 0.1, Spill: true, Seed: 3, Faults: plan,
	})
	if err != nil {
		t.Fatalf("cell failed instead of degrading: %v", err)
	}
	if res.Hits+res.Misses != res.Requests {
		t.Fatalf("requests lost under faults: %d + %d != %d", res.Hits, res.Misses, res.Requests)
	}
	if res.Spills == 0 {
		t.Error("surviving rack peers demoted nothing")
	}
	if res.SpillDrops+res.DeadFallbacks == 0 {
		t.Error("crashed spill target never degraded a demotion or a read")
	}
}

// rebalancerPartition cuts the rebalance tick's issuing node (node 2,
// the first cache node under the i%8 layout) off from every other
// cache-tier node of a 16-node cell (3-6 and 10-14) at 1ms.
const rebalancerPartition = "partition@1ms a=2 b=3; partition@1ms a=2 b=4; partition@1ms a=2 b=5; partition@1ms a=2 b=6;" +
	"partition@1ms a=2 b=10; partition@1ms a=2 b=11; partition@1ms a=2 b=12;" +
	"partition@1ms a=2 b=13; partition@1ms a=2 b=14"

// TestScaleShardHostPartitionMidMigration partitions the rebalance
// tick's issuing node (the first cache node) from every other cache
// node while the directory is actively migrating hot buckets: every
// migration/split wire op degrades to a skipped tick, front-end traffic
// is unaffected, and the placement metadata stays coherent (the cell's
// own audit).
func TestScaleShardHostPartitionMidMigration(t *testing.T) {
	plan, err := faults.Parse(rebalancerPartition)
	if err != nil {
		t.Fatal(err)
	}
	res, ts, _, err := runScaleCell(ScaleConfig{
		Nodes: 16, Clients: 100_000, Requests: 4000, Docs: 2048,
		CacheFrac: 0.1, ZipfAlpha: 1.2, Rebalance: true, Seed: 2, Faults: plan,
	})
	if err != nil {
		t.Fatalf("cell failed instead of degrading: %v", err)
	}
	if res.Hits+res.Misses != res.Requests {
		t.Fatalf("requests lost under partition: %d + %d != %d", res.Hits, res.Misses, res.Requests)
	}
	if ts.TickSkips == 0 {
		t.Error("partitioned shard hosts never degraded a rebalance op")
	}
}

// TestScaleCellReleasesGoroutines checks no goroutine of a
// spill+rebalance cell (and so not the whole cell it would reference)
// outlives RunScaleCell.
func TestScaleCellReleasesGoroutines(t *testing.T) {
	leaked := goroutinesLeakedBy(func() {
		if _, err := RunScaleCell(ScaleConfig{
			Nodes: 64, Clients: 100_000, Requests: 2400, Docs: 4096,
			CacheFrac: 0.05, ZipfAlpha: 1.2, Spill: true, Rebalance: true, Seed: 4,
		}); err != nil {
			t.Fatal(err)
		}
	})
	if leaked > 0 {
		t.Errorf("%d goroutines outlive the cell", leaked)
	}
}

// goroutinesLeakedBy runs fn and reports how many goroutines outlive it.
func goroutinesLeakedBy(fn func()) int {
	base := runtime.NumGoroutine()
	fn()
	// Shutdown signals every process; the goroutines unwind on their own.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() - base
}

// TestScaleChurnCrossoverGates re-runs the transport gates of
// TestScaleConnStateSublinear on capacity-bounded cells: the
// invalidation churn must not disturb the RC-vs-pooled crossover or
// pooled sublinearity.
func TestScaleChurnCrossoverGates(t *testing.T) {
	run := func(nodes int, tc verbs.TransportConfig) ScaleResult {
		res, err := RunScaleCell(ScaleConfig{
			Nodes: nodes, Transport: tc, Docs: 8192, CacheFrac: 0.25,
			Clients: 20_000, Requests: 300 * frontEnds(nodes), Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheEvictions == 0 {
			t.Fatalf("%d-node %s churn cell evicted nothing", nodes, res.Transport)
		}
		return res
	}
	rc64 := run(64, verbs.TransportConfig{})
	rc1024 := run(1024, verbs.TransportConfig{})
	p64 := run(64, verbs.PooledTransport())
	p1024 := run(1024, verbs.PooledTransport())

	if ratio := p1024.ConnBytesAvg / p64.ConnBytesAvg; ratio >= 2 {
		t.Errorf("under churn, pooled conn bytes/node grew %.2fx from 64 to 1024 nodes, want < 2x", ratio)
	}
	if ratio := rc1024.ConnBytesAvg / rc64.ConnBytesAvg; ratio < 4 {
		t.Errorf("under churn, rc conn bytes/node grew only %.2fx, expected near-linear growth", ratio)
	}
	if rc64.P50 >= p64.P50 {
		t.Errorf("under churn at 64 nodes rc p50 %v should beat pooled p50 %v", rc64.P50, p64.P50)
	}
	if p1024.P50 >= rc1024.P50 {
		t.Errorf("under churn at 1024 nodes pooled p50 %v should beat rc p50 %v", p1024.P50, rc1024.P50)
	}
}
