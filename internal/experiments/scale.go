package experiments

// E18 — datacenter at scale. Every other experiment mirrors the paper's
// small OSU testbed; this one carries its three primitives (one-sided
// directory lookup, cooperative-cache single-copy placement, DDSS
// segment storage) to a web-scale deployment: a multi-tier cluster of up
// to 8192 nodes in racks, serving Zipf traffic from a modeled client
// population of ~10^6 through a sharded RDMA-readable coopcache
// directory, with misses fetched from rack-aware-placed DDSS segments.
// A cell's pending-event population follows its driver count, not its
// node count — 64 events at 8192 nodes, 98 with spill and rebalance on
// (TestScaleQueueDepthFollowsDriversNotNodes) — so the big cells load the
// engine through connection state and event count, not queue depth.
//
// The sweep crosses cluster size with the verbs transport mode to
// reproduce the RDMAvisor crossover: fully-connected RC-per-pair wins at
// testbed scale (every connection fits the NIC's context cache, so
// established transports are free), while at O(1000) nodes the resident
// connection count thrashes the context cache on every front-end and the
// pooled hybrid — a fixed LRU pool of connected transports plus a shared
// datagram endpoint for the long tail — wins on both latency and
// per-node connection memory (O(pool) instead of O(N)).
//
// The cache tier itself — capacity-bounded slabs, LRU eviction with CAS
// invalidation, cooperative spill, directory rebalancing — is the
// coopcache.Tier service; this file is the cell around it: config,
// cluster build, request drivers, sweep and table. A driver is an event
// chain, not a process: a request is the tier's GetAsync (admission
// burst, directory read, slab read), then on a miss ddss's GetAsync (the
// storage fetch) and the tier's InstallAsync, each step at the instant
// the blocking calls ran it, so no request parks a process. Boot and the
// rebalance tick are the cell's only processes.

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/coopcache"
	"ngdc/internal/ddss"
	"ngdc/internal/faults"
	"ngdc/internal/metrics"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
	"ngdc/internal/workload"
)

// ScaleConfig describes one cell of the datacenter-at-scale model.
//
// Tiers interleave within racks by node index: i%8 ∈ {0,1} is a
// front-end (25%), i%8 == 7 is storage (12.5%), the rest are cache
// nodes (62.5%) — so every rack hosts all three tiers and rack-aware
// placement has real spread to work with.
type ScaleConfig struct {
	// Nodes is the cluster size (≥ 8 so every tier is populated).
	Nodes int
	// Transport selects the verbs connection-management mode.
	Transport verbs.TransportConfig
	// Clients is the modeled client population (default 1e6).
	Clients int
	// Drivers bounds the concurrent request generators multiplexing the
	// client population (default 64, capped at the front-end count).
	Drivers int
	// Requests is the total request count across all drivers (default
	// 200 per front-end).
	Requests int
	// Docs is the working-set size (default 16384).
	Docs int
	// ZipfAlpha shapes document popularity (default 0.99).
	ZipfAlpha float64
	// CacheFrac sizes each cache node's document slab as a fraction of
	// its share of the working set. 0 (the default) or ≥ 1 means exact
	// sizing — every document fits its home node, so no capacity
	// evictions ever fire and the cell reproduces the unbounded tier.
	// A fraction < 1 bounds the slab and turns misses into
	// evict/invalidate churn.
	CacheFrac float64
	// Spill enables the cooperative victim tier (coopcache.TierOptions):
	// an eviction demotes the victim into a rack neighbor's reserved
	// region instead of dropping it. Off by default.
	Spill bool
	// Rebalance enables hotspot-aware directory rebalancing: bucketed
	// shard addressing plus a periodic tick that migrates or splits the
	// hottest shard's buckets. Off by default.
	Rebalance bool
	// Seed drives the workload streams and the engine.
	Seed int64
	// Faults optionally injects a deterministic fault plan (node
	// crashes/partitions) into the cell. The cache tier degrades
	// instead of failing: reads against crashed holders fall back to
	// storage and the dead directory entries are cleared.
	Faults *faults.Plan
}

// frontCPU is the per-request front-end admission/parse cost.
const frontCPU = 3 * time.Microsecond

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Clients <= 0 {
		c.Clients = 1_000_000
	}
	if c.Drivers <= 0 {
		c.Drivers = 64
	}
	if c.Requests <= 0 {
		c.Requests = 200 * frontEnds(c.Nodes)
	}
	if c.Docs <= 0 {
		c.Docs = 16384
	}
	if c.ZipfAlpha == 0 {
		c.ZipfAlpha = 0.99
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// frontEnds returns the front-end count of an n-node cluster under the
// interleaved tier layout.
func frontEnds(n int) int { return n/8*2 + min(n%8, 2) }

// ScaleResult is one cell's outcome.
type ScaleResult struct {
	Nodes                             int
	FrontEnds, CacheNodes, StoreNodes int
	Transport                         string
	Requests, Hits, Misses            int64
	// Elapsed is the virtual duration of the measured request phase.
	Elapsed time.Duration
	// P50/P99 are virtual per-request latencies.
	P50, P99 time.Duration
	// ReqsPerSec is virtual throughput: Requests / Elapsed.
	ReqsPerSec float64
	// ConnBytesAvg/Max are HCA connection-state memory per node at the
	// end of the run (the sublinearity gate).
	ConnBytesAvg float64
	ConnBytesMax int64
	// Transport counters summed over all devices.
	Establishes, Evictions, UDOps, CacheMisses int64
	// Cache-tier telemetry: the coopcache.TierStats counters (documented
	// there) under this table's names, ZipfAlpha/SpillEnabled/RebalanceOn
	// echoing the config, and the *PerSec rates over Elapsed.
	// DirMaxOverMean is measured in every cell; migrations/splits only
	// move with Rebalance on.
	CacheFrac, ZipfAlpha                                                            float64
	CacheSlots, CacheEvictions, Invalidations, StaleReads, DeadFallbacks, Rollbacks int64
	CacheEvictPerSec                                                                float64
	SpillEnabled                                                                    bool
	SpillSlots, Spills, SpillHits, SpillDrops, SpillRedirectLost, SpillReclaims     int64
	SpillHitPerSec                                                                  float64
	RebalanceOn                                                                     bool
	DirMaxOverMean                                                                  float64
	DirMigrations, DirSplits                                                        int64
	// Events is the engine's processed-event count; Wall the host time
	// of the run.
	Events uint64
	Wall   time.Duration
}

// RunScaleCell builds and runs one datacenter-at-scale cell. The cache
// tier's invariants are audited after every run; a violation is the
// cell's error.
func RunScaleCell(cfg ScaleConfig) (ScaleResult, error) {
	res, _, _, err := runScaleCell(cfg)
	return res, err
}

// runScaleCell is RunScaleCell also returning the tier's final stats
// snapshot and the engine's counters, for what ScaleResult does not
// carry (the benchmark digests that struct, so it gains no fields).
func runScaleCell(cfg ScaleConfig) (res ScaleResult, ts coopcache.TierStats, es sim.EngineStats, err error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 8 {
		return res, ts, es, fmt.Errorf("scale: need ≥ 8 nodes for all tiers, got %d", cfg.Nodes)
	}
	// The cell's fields keep their names (the repository benchmark and
	// the pinned-cell tests build ScaleConfig literals); the carrier is
	// assembled here.
	open := runtime.ServiceOptions{Faults: cfg.Faults}
	env := open.NewEnv()
	// A process still parked when Run returns (only after a failure: boot
	// and the rebalance tick end with the drivers) would pin the whole
	// cell forever.
	defer env.Shutdown()
	nw := verbs.NewNetworkWith(env, open.Fabric(), cfg.Transport)
	nodes := make([]*cluster.Node, cfg.Nodes)
	var fes, caches, stores []*cluster.Node
	for i := range nodes {
		n := cluster.NewNode(env, i, 4, 1<<26)
		nodes[i] = n
		switch {
		case i%8 < 2:
			fes = append(fes, n)
		case i%8 == 7:
			stores = append(stores, n)
		default:
			caches = append(caches, n)
		}
	}
	feDevs := make([]*verbs.Device, len(fes))
	for i, n := range fes {
		feDevs[i] = nw.Attach(n)
	}
	tier := coopcache.NewTier(nw, caches, coopcache.TierOptions{
		Docs: cfg.Docs, CacheFrac: cfg.CacheFrac, Spill: cfg.Spill, Rebalance: cfg.Rebalance,
	})
	// Storage tier: DDSS segments spread rack-aware across the storage
	// nodes of every rack.
	ss := ddss.New(nw, nodes, ddss.Options{})
	ss.SetPlacement(ss.RackAware(
		func(id int) int { return id / coopcache.TierRackSize },
		func(id int) bool { return id%8 == 7 },
	))
	numSegs := 2 * len(stores)
	segKeys := make([]string, numSegs)
	for s := range segKeys {
		segKeys[s] = fmt.Sprintf("seg-%04d", s)
	}

	drivers := min(cfg.Drivers, len(fes))
	pop := workload.NewPopulation(cfg.Clients, cfg.Docs, cfg.ZipfAlpha, cfg.Seed)
	cell := &scaleCell{
		env: env, tier: tier, fes: fes, feDevs: feDevs, ss: ss, segKeys: segKeys,
		handles: make([]*ddss.Handle, len(fes)*numSegs),
		clients: make([]*ddss.Client, len(fes)),
		live:    drivers,
	}
	// One latency per request, sized once: append's regrowth would leave
	// several times the final array resident.
	cell.lat.Grow(cfg.Requests)
	var start sim.Time
	env.Go("boot", func(p *sim.Proc) {
		boot := ss.Client(fes[0].ID)
		for _, key := range segKeys {
			if _, err := boot.Allocate(p, key, coopcache.TierDocBytes, ddss.Null, ddss.NodeAuto); err != nil {
				cell.firstErr = err
				tier.Stop()
				return
			}
		}
		start = env.Now()
		for k := 0; k < drivers; k++ {
			d := &scaleDriver{c: cell, st: pop.Stream(k, drivers), left: cfg.Requests / drivers,
				buf: make([]byte, coopcache.TierDocBytes)}
			if k < cfg.Requests%drivers {
				d.left++
			}
			d.feLo = k * len(fes) / drivers
			d.feN = (k+1)*len(fes)/drivers - d.feLo
			d.nextFn, d.gotFn, d.fetchedFn, d.installedFn = d.next, d.got, d.fetched, d.installed
			env.After(0, d.nextFn)
		}
	})

	wallStart := time.Now()
	if err := env.Run(); err != nil {
		return res, ts, es, err
	}
	if cell.firstErr == nil && cell.live > 0 {
		cell.firstErr = fmt.Errorf("scale: %d of %d drivers never finished", cell.live, drivers)
	}
	if cell.firstErr == nil {
		cell.firstErr = tier.Audit()
	}
	if cell.firstErr != nil {
		return res, ts, es, cell.firstErr
	}

	elapsed := time.Duration(env.Now() - start)
	ts, es = tier.Stats(), env.Stats()
	res = ScaleResult{
		Nodes: cfg.Nodes, FrontEnds: len(fes), CacheNodes: len(caches), StoreNodes: len(stores),
		Transport: nw.Transport().Mode.String(),
		Requests:  cell.hits + cell.misses, Hits: cell.hits, Misses: cell.misses,
		Elapsed:   elapsed,
		P50:       time.Duration(cell.lat.Percentile(50) * float64(time.Microsecond)),
		P99:       time.Duration(cell.lat.Percentile(99) * float64(time.Microsecond)),
		CacheFrac: ts.CacheFrac, ZipfAlpha: cfg.ZipfAlpha, CacheSlots: ts.Slots,
		CacheEvictions: ts.Evictions, Invalidations: ts.Invalidations, StaleReads: ts.StaleReads,
		DeadFallbacks: ts.DeadFallbacks, Rollbacks: ts.Rollbacks,
		SpillEnabled: cfg.Spill, SpillSlots: ts.SpillSlots, Spills: ts.Spills, SpillHits: ts.SpillHits,
		SpillDrops: ts.SpillDrops, SpillRedirectLost: ts.SpillRedirectLost, SpillReclaims: ts.SpillReclaims,
		RebalanceOn: cfg.Rebalance, DirMaxOverMean: ts.DirMaxOverMean,
		DirMigrations: ts.DirMigrations, DirSplits: ts.DirSplits,
		Events: es.EventsProcessed,
		Wall:   time.Since(wallStart),
	}
	if elapsed > 0 {
		res.ReqsPerSec = float64(res.Requests) / elapsed.Seconds()
		res.CacheEvictPerSec = float64(res.CacheEvictions) / elapsed.Seconds()
		res.SpillHitPerSec = float64(res.SpillHits) / elapsed.Seconds()
	}
	res.ConnBytesAvg, res.ConnBytesMax = nw.ConnBytesPerNode()
	res.Establishes, res.Evictions, res.UDOps, res.CacheMisses = nw.ConnTotals()
	return res, ts, es, nil
}

// scaleCell is what a cell's request drivers share.
type scaleCell struct {
	env     *sim.Env
	tier    *coopcache.Tier
	fes     []*cluster.Node
	feDevs  []*verbs.Device
	ss      *ddss.Substrate
	segKeys []string
	// Lazy per-(front-end, segment) DDSS handles: Zipf traffic touches a
	// small fraction of the cross product, so the flat index array stays
	// mostly nil.
	handles []*ddss.Handle
	clients []*ddss.Client

	hits, misses int64
	lat          metrics.Sample // per-request virtual latency, µs
	firstErr     error
	live         int // drivers still issuing requests
}

// handle returns front-end fi's handle on doc's DDSS segment, opening it
// on first use.
func (c *scaleCell) handle(fi, doc int) (*ddss.Handle, error) {
	si := doc % len(c.segKeys)
	hidx := fi*len(c.segKeys) + si
	if c.handles[hidx] == nil {
		if c.clients[fi] == nil {
			c.clients[fi] = c.ss.Client(c.fes[fi].ID)
		}
		h, err := c.clients[fi].Open(c.segKeys[si])
		if err != nil {
			return nil, err
		}
		c.handles[hidx] = h
	}
	return c.handles[hidx], nil
}

// scaleDriver is one closed-loop request generator, run as an event
// chain: a request is the tier's Get chain, then on a miss the DDSS fetch
// chain and the tier's Install chain, and the next request starts in the
// step that ended the last one — each step at the instant, and with the
// event sequence number, at which a driver process looping over the
// blocking calls ran it. Every step is a tail call.
type scaleDriver struct {
	c         *scaleCell
	st        *workload.Stream
	left      int // requests still to issue
	feLo, feN int // the front-ends this driver's clients arrive at
	fi, doc   int // the request in flight
	t0        sim.Time
	buf       []byte
	scr       coopcache.TierScratch
	fetch     ddss.Op

	nextFn                 func()
	gotFn                  func(served bool, err error)
	fetchedFn, installedFn func(error)
}

// next starts the driver's next request, or stops the driver.
func (d *scaleDriver) next() {
	if d.left == 0 {
		d.stop(nil)
		return
	}
	d.left--
	c := d.c
	rq := d.st.Next()
	d.fi, d.doc, d.t0 = d.feLo+rq.Client%d.feN, rq.Doc, c.env.Now()
	c.tier.GetAsync(c.feDevs[d.fi], frontCPU, rq.Doc, d.buf, &d.scr, d.gotFn)
}

func (d *scaleDriver) got(served bool, err error) {
	switch {
	case err != nil:
		d.stop(err)
	case served:
		d.c.hits++
		d.done()
	default:
		// Miss (or degraded hit): fetch from the document's DDSS segment
		// on the storage tier, then install the copy — evicting and
		// invalidating as capacity demands.
		h, err := d.c.handle(d.fi, d.doc)
		if err != nil {
			d.stop(err)
			return
		}
		h.GetAsync(d.buf, &d.fetch, d.fetchedFn)
	}
}

func (d *scaleDriver) fetched(err error) {
	if err != nil {
		d.stop(err)
		return
	}
	d.c.tier.InstallAsync(d.c.feDevs[d.fi], d.doc, d.buf, &d.scr, d.installedFn)
}

func (d *scaleDriver) installed(err error) {
	if err != nil {
		d.stop(err)
		return
	}
	d.c.misses++
	d.done()
}

// done records the finished request's latency and starts the next one.
func (d *scaleDriver) done() {
	d.c.lat.AddDuration(time.Duration(d.c.env.Now() - d.t0))
	d.next()
}

// stop ends the driver. Run ends only when the event queue drains, so the
// last driver to stop ends the tier's rebalance tick.
func (d *scaleDriver) stop(err error) {
	c := d.c
	if err != nil && c.firstErr == nil {
		c.firstErr = err
	}
	if c.live--; c.live == 0 {
		c.tier.Stop()
	}
}

// DCScale regenerates E18: the cluster-size × transport-mode sweep,
// plus a cache-capacity axis (slab fraction of the working set), a
// hotter Zipf point that drives the eviction/invalidation churn loop,
// and a cooperative-spill × rebalancing axis that toggles the two
// mechanisms over the capacity/hotspot cells.
func DCScale(o Options) (*metrics.Table, error) {
	modes := []verbs.TransportConfig{{}, verbs.PooledTransport()}
	sizes := []int{64, 256, 1024, 4096, 8192}
	clients, perFE := 1_000_000, 600
	churnNodes := 256
	fracs := []float64{0.25, 0.1, 0.05}
	hotFrac := 0.1
	// Cooperative-spill × rebalancing axis: capacity-pressured cells on
	// the pooled transport with each mechanism toggled. The off/off rows
	// are the drop-on-evict baselines the spill rows are judged against.
	spillFracs := []float64{0.1, 0.05}
	spillAlphas := []float64{1.01, 1.2}
	spillDocs := 0
	if o.Quick {
		// The CI quick-scale smoke: still an O(10^4)-node cluster, but a
		// reduced client population and request budget; the churn cells
		// drop to a smaller fraction so capacity pressure is reached with
		// the fewer distinct documents the smaller budget touches.
		sizes = []int{64, 4096}
		clients, perFE = 100_000, 150
		churnNodes = 64
		fracs = []float64{0.05}
		hotFrac = 0.05
		spillFracs = []float64{0.05}
		spillAlphas = []float64{1.2}
		// The quick budget touches few distinct docs; shrink the working
		// set so eviction churn (and thus spill re-reads) still happens.
		spillDocs = 4096
	}
	var cells []ScaleConfig
	add := func(c ScaleConfig) {
		c.Clients, c.Requests = clients, perFE*frontEnds(c.Nodes)
		cells = append(cells, c)
	}
	for _, n := range sizes {
		for _, tc := range modes {
			add(ScaleConfig{Nodes: n, Transport: tc, CacheFrac: 1, ZipfAlpha: 0.99})
		}
	}
	// Capacity axis: fixed cluster and working set, shrinking slabs —
	// the cap-1.0 row of the same cluster size above is the baseline, so
	// hit % reads monotone straight down the column.
	for _, f := range fracs {
		for _, tc := range modes {
			add(ScaleConfig{Nodes: churnNodes, Transport: tc, CacheFrac: f, ZipfAlpha: 0.99})
		}
	}
	// Hotspot point: hotter Zipf concentrates churn on the head.
	for _, tc := range modes {
		add(ScaleConfig{Nodes: churnNodes, Transport: tc, CacheFrac: hotFrac, ZipfAlpha: 1.2})
	}
	for _, f := range spillFracs {
		for _, a := range spillAlphas {
			for _, m := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				add(ScaleConfig{
					Nodes: churnNodes, Transport: verbs.PooledTransport(), Docs: spillDocs,
					CacheFrac: f, ZipfAlpha: a, Spill: m[0], Rebalance: m[1],
				})
			}
		}
	}
	res, err := sweep(o, cells, func(c ScaleConfig, o Options) (ScaleResult, error) {
		c.Seed = o.seed()
		return RunScaleCell(c)
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("E18 — datacenter at scale: cluster size × transport mode × cache capacity × spill/rebalance (Zipf traffic, "+
		fmt.Sprintf("%d modeled clients)", clients),
		"nodes", "transport", "cap", "alpha", "spill", "reb", "reqs/s", "p50 (µs)", "p99 (µs)",
		"hit %", "spill %", "evict/s", "sphit/s", "dir mx/mn", "conn KB/node")
	for _, r := range res {
		tb.AddRow(r.Nodes, r.Transport,
			r.CacheFrac, r.ZipfAlpha,
			onoff(r.SpillEnabled), onoff(r.RebalanceOn),
			r.ReqsPerSec,
			us(r.P50), us(r.P99),
			metrics.Ratio(float64(r.Hits)*100, float64(r.Requests)),
			metrics.Ratio(float64(r.SpillHits)*100, float64(r.Requests)),
			r.CacheEvictPerSec,
			r.SpillHitPerSec,
			r.DirMaxOverMean,
			r.ConnBytesAvg/1024)
	}
	return tb, nil
}

func onoff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
