// Package dyncache implements the paper's active-caching architecture for
// dynamic content ([Narravula et al., CCGrid'05], §3): proxies cache
// *rendered responses* of dynamic documents, each of which depends on
// several mutable back-end objects, and keep those caches strongly
// coherent by validating dependency versions with one-sided RDMA reads of
// the application servers' version tables.
//
// Three schemes are compared:
//
//   - NoCache: every request re-renders the document on an application
//     server (always coherent, maximum back-end CPU).
//   - TTLCache: classic timeout-based caching — fast, but serves stale
//     responses whenever a dependency changed within the TTL window.
//   - RDMACheck: the paper's design — a cached response is served only
//     after a one-sided read confirms that every dependency version still
//     matches the versions the response was rendered from. Coherence is
//     strong — a response is guaranteed fresh as of the instant the
//     validation read sampled the version table; only an update landing
//     inside that single in-flight read (a window of a few microseconds)
//     can slip past, which is the same guarantee the hardware gives the
//     paper's implementation. Costs a few microseconds per hit and no
//     application-server CPU.
//
// Dependency versions live in registered memory, one 64-bit counter per
// object, contiguous per application server, so validating a document's
// dependencies on one server costs a single RDMA read.
package dyncache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
	"ngdc/internal/workload"
)

// Scheme selects the coherence mechanism.
type Scheme int

// The compared schemes.
const (
	NoCache Scheme = iota
	TTLCache
	RDMACheck
)

func (s Scheme) String() string {
	switch s {
	case NoCache:
		return "no-cache"
	case TTLCache:
		return "ttl"
	case RDMACheck:
		return "rdma-check"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Schemes lists the compared designs.
var Schemes = []Scheme{NoCache, TTLCache, RDMACheck}

// The testbed: two proxies with closed-loop clients in front of two
// application servers.
const (
	proxies    = 2
	appServers = 2
	// objects is the number of mutable back-end objects per app server.
	objects = 256
	// docs is the number of dynamic documents.
	docs = 512
	// depsPerDoc is how many objects each document depends on.
	depsPerDoc = 3
	// renderCPU is the application-server cost of rendering a document.
	renderCPU = 2 * time.Millisecond
	// responseBytes is the rendered response size.
	responseBytes = 16 << 10
	// zipfAlpha shapes document popularity.
	zipfAlpha = 0.9
	// clientsPerProxy is the closed-loop client count per proxy.
	clientsPerProxy = 8
	// ttl is the timeout for TTLCache.
	ttl = 100 * time.Millisecond
	// warmup is the virtual warm-up before measuring.
	warmup = 300 * time.Millisecond
)

// Config describes one experiment.
type Config struct {
	Scheme Scheme
	// UpdatesPerSec is the aggregate object-update rate.
	UpdatesPerSec float64
	// Measure is the virtual measurement window.
	Measure time.Duration
	Seed    int64
	// ServiceOptions opens the run: registry, fault plan, calibration.
	runtime.ServiceOptions
}

// DefaultConfig returns a two-tier deployment with a meaningful update
// rate: popular documents get invalidated while cached.
func DefaultConfig(scheme Scheme) Config {
	return Config{
		Scheme:        scheme,
		UpdatesPerSec: 200,
		Measure:       2 * time.Second,
		Seed:          1,
	}
}

// Stats is the outcome of one run.
type Stats struct {
	Scheme   Scheme
	Requests int64
	TPS      float64
	// CoherentHits are responses served from cache after validation (or
	// within TTL for the TTL scheme).
	CoherentHits int64
	// Renders are full back-end re-renders.
	Renders int64
	// StaleServed counts cached responses whose dependencies had already
	// changed (against instantaneous ground truth) when they were served.
	// Zero for NoCache; for RDMACheck it is bounded by updates landing
	// inside the microsecond-scale validation read, i.e. ~0.
	StaleServed int64
	// MeanLatencyMs is the mean request latency.
	MeanLatencyMs float64
}

// dep names one dependency: an object index on an app server.
type dep struct {
	server int // index into app servers
	object int
}

// cachedResponse is a proxy cache entry.
type cachedResponse struct {
	versions []uint64 // dependency versions at render time
	storedAt sim.Time
}

// deployment wires the experiment.
type deployment struct {
	cfg     Config
	env     *sim.Env
	nw      *verbs.Network
	proxies []*verbs.Device
	apps    []*verbs.Device
	// versionMR[s] is app server s's registered version table.
	versionMR []*verbs.MR
	// deps[d] lists document d's distinct dependencies.
	deps [][]dep

	// caches[pi][doc] is proxy pi's cached response for doc, nil if none.
	caches [][]*cachedResponse

	measuring bool
	stats     Stats
	latSum    time.Duration
}

// Run executes one experiment.
func Run(cfg Config) (Stats, error) {
	d := build(cfg)
	defer d.env.Shutdown()
	d.start()
	if err := d.env.RunUntil(sim.Time(warmup + cfg.Measure)); err != nil {
		return d.stats, err
	}
	d.stats.Scheme = cfg.Scheme
	d.stats.TPS = float64(d.stats.Requests) / cfg.Measure.Seconds()
	if d.stats.Requests > 0 {
		d.stats.MeanLatencyMs = float64(d.latSum.Milliseconds()) / float64(d.stats.Requests)
	}
	return d.stats, nil
}

func build(cfg Config) *deployment {
	env := cfg.NewEnv(cfg.Seed)
	nw := verbs.NewNetwork(env, cfg.Fabric())
	d := &deployment{cfg: cfg, env: env, nw: nw}
	id := 0
	for i := 0; i < proxies; i++ {
		n := cluster.NewNode(env, id, 2, 1<<30)
		id++
		d.proxies = append(d.proxies, nw.Attach(n))
		d.caches = append(d.caches, make([]*cachedResponse, docs))
	}
	for i := 0; i < appServers; i++ {
		n := cluster.NewNode(env, id, 2, 1<<30)
		id++
		dev := nw.Attach(n)
		d.apps = append(d.apps, dev)
		d.versionMR = append(d.versionMR, dev.RegisterAtSetup(make([]byte, 8*objects)))
	}
	// Assign dependencies deterministically.
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	d.deps = make([][]dep, docs)
	for doc := 0; doc < docs; doc++ {
		for len(d.deps[doc]) < depsPerDoc {
			dp := dep{server: rng.Intn(appServers), object: rng.Intn(objects)}
			if !slices.Contains(d.deps[doc], dp) {
				d.deps[doc] = append(d.deps[doc], dp)
			}
		}
	}
	return d
}

// version reads one dependency's version from ground truth (no cost;
// used for staleness accounting and by the renderer, which owns the
// memory anyway).
func (d *deployment) version(dp dep) uint64 {
	return binary.LittleEndian.Uint64(d.versionMR[dp.server].Bytes()[8*dp.object:])
}

// currentVersions returns doc's dependency versions from ground truth,
// in a new slice a cached response can keep.
func (d *deployment) currentVersions(doc int) []uint64 {
	out := make([]uint64, len(d.deps[doc]))
	for i, dp := range d.deps[doc] {
		out[i] = d.version(dp)
	}
	return out
}

// validate performs the RDMA coherence check: one one-sided read per app
// server touched by the document's dependency set. It returns whether the
// cached versions still match.
func (d *deployment) validate(p *sim.Proc, px *verbs.Device, doc int, cached []uint64) (bool, error) {
	// Read the whole (small) version table of each server in one
	// one-sided read; real deployments read the contiguous range covering
	// the dependencies. The buffer comes from the proxy's pool; a read
	// samples target memory before the process wakes, so each concurrent
	// validation holds its own.
	buf := px.GetBuf(8 * objects)
	defer px.PutBuf(buf)
	// One read per server the dependencies touch, in server order; a
	// mismatch does not skip the reads after it.
	match := true
	for s := 0; s < appServers; s++ {
		if !slices.ContainsFunc(d.deps[doc], func(dp dep) bool { return dp.server == s }) {
			continue
		}
		if err := px.Read(p, buf, d.versionMR[s].Addr(), 0); err != nil {
			return false, err
		}
		for i, dp := range d.deps[doc] {
			if dp.server == s && binary.LittleEndian.Uint64(buf[8*dp.object:]) != cached[i] {
				match = false
			}
		}
	}
	return match, nil
}

// render performs a full back-end render: request to the document's
// primary app server, render CPU there, response transfer.
func (d *deployment) render(p *sim.Proc, px *verbs.Device, doc int) []uint64 {
	primary := d.deps[doc][0].server
	app := d.apps[primary]
	pp := d.nw.Params()
	// Request and response ride TCP (the app tier speaks HTTP in the
	// paper's multi-tier setup).
	app.Node.Exec(p, pp.TCPCPUTime(128))
	p.Sleep(pp.TCPLatency)
	app.Node.Exec(p, renderCPU)
	versions := d.currentVersions(doc)
	app.Node.Exec(p, pp.TCPCPUTime(responseBytes))
	app.NIC().AcquireTx(p, pp.TCPTxTime(responseBytes))
	p.Sleep(pp.TCPLatency)
	px.Node.Exec(p, pp.TCPCPUTime(responseBytes))
	return versions
}

// serve handles one request for doc at proxy pi.
func (d *deployment) serve(p *sim.Proc, pi, doc int) error {
	px := d.proxies[pi]
	pp := d.nw.Params()
	start := p.Now()
	px.Node.Exec(p, 25*time.Microsecond) // request processing

	entry := d.caches[pi][doc]
	serveCached := false
	switch d.cfg.Scheme {
	case NoCache:
		// never cached
	case TTLCache:
		if entry != nil && time.Duration(p.Now()-entry.storedAt) < ttl {
			serveCached = true
		}
	case RDMACheck:
		if entry != nil {
			ok, err := d.validate(p, px, doc, entry.versions)
			if err != nil {
				return err
			}
			serveCached = ok
		}
	}

	stale := false
	if serveCached {
		// Staleness accounting against ground truth at serve time.
		for i, dp := range d.deps[doc] {
			if d.version(dp) != entry.versions[i] {
				stale = true
			}
		}
		p.Sleep(pp.CopyTime(responseBytes))
	} else {
		versions := d.render(p, px, doc)
		if d.cfg.Scheme != NoCache {
			d.caches[pi][doc] = &cachedResponse{versions: versions, storedAt: p.Now()}
		}
	}

	// Egress to the client.
	px.NIC().AcquireTx(p, pp.TCPTxTime(responseBytes))
	if d.measuring {
		d.stats.Requests++
		d.latSum += time.Duration(p.Now() - start)
		if serveCached {
			d.stats.CoherentHits++
			if stale {
				d.stats.StaleServed++
			}
		} else {
			d.stats.Renders++
		}
	}
	return nil
}

// start spawns updaters and clients.
func (d *deployment) start() {
	cfg := d.cfg
	// Object updaters: exponential-ish arrivals via uniform jitter.
	if cfg.UpdatesPerSec > 0 {
		interval := time.Duration(float64(time.Second) / cfg.UpdatesPerSec)
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		d.env.GoDaemon("updater", func(p *sim.Proc) {
			for {
				p.Sleep(interval/2 + time.Duration(rng.Int63n(int64(interval))))
				s := rng.Intn(appServers)
				o := rng.Intn(objects)
				mr := d.versionMR[s]
				// The app server updates its own registered memory; a
				// small CPU charge models the write transaction.
				d.apps[s].Node.Exec(p, 200*time.Microsecond)
				mr.PutUint64At(8*o, mr.Uint64At(8*o)+1)
			}
		})
	}
	for pi := 0; pi < proxies; pi++ {
		for c := 0; c < clientsPerProxy; c++ {
			pi, c := pi, c
			rng := rand.New(rand.NewSource(cfg.Seed + int64(pi*100+c)))
			zipf := workload.NewZipf(rng, zipfAlpha, docs)
			d.env.GoDaemon(fmt.Sprintf("client-%d-%d", pi, c), func(p *sim.Proc) {
				for {
					if err := d.serve(p, pi, zipf.Next()); err != nil {
						panic(err)
					}
				}
			})
		}
	}
	d.env.At(sim.Time(warmup), func() { d.measuring = true })
}
