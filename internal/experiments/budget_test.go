package experiments

import (
	"fmt"
	goruntime "runtime"
	"testing"
)

// churnBudgetCell is a small e18-churn: spill and rebalance on RC, 10%
// capacity, so its requests take every path of the tier — hits, storage
// misses, evicting installs, demotions, rebalance ticks.
var churnBudgetCell = ScaleConfig{Nodes: 64, Docs: 2048, CacheFrac: 0.1, Spill: true, Rebalance: true,
	Clients: 100_000, Requests: 10_000, Seed: 1}

// TestScaleChurnHandOffBudget pins what the churn cell computes and what
// the host pays for it. Edit only the resume, spawn and start-event lines,
// each with the count that explains it; a model output that moves is a
// virtual-time change.
func TestScaleChurnHandOffBudget(t *testing.T) {
	res, _, es, err := runScaleCell(churnBudgetCell)
	if err != nil {
		t.Fatal(err)
	}
	res.Wall, res.Events = 0, 0
	if got := fmt.Sprintf("%+v", res); got != churnBudgetModel {
		t.Errorf("model outputs moved (a virtual-time change):\n got %s\nwant %s", got, churnBudgetModel)
	}
	n := float64(res.Requests)
	t.Logf("%d requests: %d events (%.4f/request), %d resumes (%.4f/request), %d processes spawned, %d events queued at most",
		res.Requests, es.EventsProcessed, float64(es.EventsProcessed)/n, es.Resumes, float64(es.Resumes)/n, es.ProcsSpawned, es.MaxEventQueue)
	if es.EventsProcessed != churnBudgetEvents {
		t.Errorf("%d events, want %d", es.EventsProcessed, churnBudgetEvents)
	}
	if es.Resumes != churnBudgetResumes {
		t.Errorf("%d resumes (%.4f/request), want %d", es.Resumes, float64(es.Resumes)/n, churnBudgetResumes)
	}
	if es.ProcsSpawned != churnBudgetProcsSpawned {
		t.Errorf("%d processes spawned, want %d", es.ProcsSpawned, churnBudgetProcsSpawned)
	}
}

// What the host pays. Events are the schedule and do not change with who
// executes it, except for start events of processes that no longer exist.
const (
	churnBudgetEvents       = 104316 // 10.43 per request; 104356 with the start events of 40 demotion worker processes
	churnBudgetResumes      = 222    // boot and the rebalance tick: no request parks a process (31508 with a park per op of the miss path and demotion worker processes; 15984 with a driver process parked once per chain)
	churnBudgetProcsSpawned = 2      // boot, the rebalance tick (18 with 16 driver processes, 58 with 40 demotion workers too)
)

// What the cell computes: its result with Wall and Events zeroed. Not to
// be edited by a host-side change.
const churnBudgetModel = "{Nodes:64 FrontEnds:16 CacheNodes:40 StoreNodes:8 Transport:rc Requests:10000 Hits:7127 Misses:2873 " +
	"Elapsed:13.960704ms P50:17.283µs P99:39.075µs ReqsPerSec:716296.2555469981 ConnBytesAvg:1.184256e+06 ConnBytesMax:1351680 " +
	"Establishes:1542 Evictions:0 UDOps:0 CacheMisses:0 CacheFrac:0.1 ZipfAlpha:0.99 CacheSlots:187 CacheEvictions:2642 " +
	"Invalidations:2388 StaleReads:66 DeadFallbacks:0 Rollbacks:3 CacheEvictPerSec:189245.47071551692 SpillEnabled:true " +
	"SpillSlots:294 Spills:2616 SpillHits:2012 SpillDrops:0 SpillRedirectLost:26 SpillReclaims:2322 " +
	"SpillHitPerSec:144118.80661605604 RebalanceOn:true DirMaxOverMean:1.6662973631730555 DirMigrations:24 DirSplits:10 " +
	"Events:0 Wall:0s}"

// TestScaleAllocationPerRequest bounds what an E18 request allocates on
// the host: the churn cell run at R and at 2R requests may allocate at
// most the latency sample's 8 B per extra request, plus
// allocSlackPerRequest for what grows with the run but not per request
// (lazily opened DDSS handles, connections, cache-tier records).
func TestScaleAllocationPerRequest(t *testing.T) {
	alloc := func(requests int) uint64 {
		cfg := churnBudgetCell
		cfg.Requests = requests
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		if _, err := RunScaleCell(cfg); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	r := churnBudgetCell.Requests
	alloc(r) // warm lazily built package state
	small, large := alloc(r), alloc(2*r)
	perReq := (float64(large) - float64(small)) / float64(r)
	t.Logf("%d requests: %d B; %d requests: %d B; %.1f B per extra request", r, small, 2*r, large, perReq)
	if perReq > 8+allocSlackPerRequest {
		t.Errorf("%.1f B allocated per extra request, want at most 8 (the latency sample) + %d", perReq, allocSlackPerRequest)
	}
}

// allocSlackPerRequest is the margin TestScaleAllocationPerRequest
// allows above the latency sample.
const allocSlackPerRequest = 8
