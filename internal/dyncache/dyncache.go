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
	// err is the first failed validation read; it ends the run.
	err error
}

// Run executes one experiment.
func Run(cfg Config) (Stats, error) {
	d := build(cfg)
	defer d.env.Shutdown()
	d.start()
	if err := d.env.RunUntil(sim.Time(warmup + cfg.Measure)); err != nil {
		return d.stats, err
	}
	if d.err != nil {
		return d.stats, d.err
	}
	d.stats.Scheme = cfg.Scheme
	d.stats.TPS = float64(d.stats.Requests) / cfg.Measure.Seconds()
	if d.stats.Requests > 0 {
		d.stats.MeanLatencyMs = float64(d.latSum.Milliseconds()) / float64(d.stats.Requests)
	}
	return d.stats, nil
}

func build(cfg Config) *deployment {
	env := cfg.NewEnv()
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

// request is one closed-loop client and the request it has in flight:
// proxy request processing, then a cached response (validated first
// under RDMACheck) or a full back-end render, then egress to the
// client. It runs no process: every stage boundary is a callback at the
// instant the blocking pipeline parked and resumed (Exec is ExecAsync, a
// sleep is a timer, a transmit a NIC hold, a validation read an Issue to
// a handler CQ), and
// the event that puts the response's last byte on the wire counts it
// and issues the client's next request. Callbacks and the completion
// queue are bound once per client, so a request allocates only the
// cache entry a render stores.
type request struct {
	d     *deployment
	pi, c int // the proxy's index and the client's among its clients
	px    *verbs.Device
	zipf  *workload.Zipf

	doc      int
	start    sim.Time
	entry    *cachedResponse // the entry served; nil once the request renders
	stale    bool            // the entry served was stale
	versions []uint64        // a render's dependency versions
	buf      []byte          // validation reads' destination, from the proxy's pool
	server   int             // the app server the validation read in flight targets
	match    bool            // every validated dependency matched so far

	cq                                                   *verbs.CQ
	admittedFn, egressFn, doneFn                         func()
	reqCPUFn, reqWireFn, renderedFn, respCPUFn, respTxFn func()
	respWireFn, recvFn                                   func()
}

func (d *deployment) newRequest(pi, c int, zipf *workload.Zipf) *request {
	r := &request{d: d, pi: pi, c: c, px: d.proxies[pi], zipf: zipf}
	r.cq = verbs.HandlerCQ(r.validated)
	r.admittedFn, r.egressFn, r.doneFn = r.admitted, r.egress, r.done
	r.reqCPUFn, r.reqWireFn, r.renderedFn, r.respCPUFn = r.reqCPU, r.reqWire, r.rendered, r.respCPU
	r.respTxFn, r.respWireFn, r.recvFn = r.respTx, r.respWire, r.received
	return r
}

// next issues the client's next request, unless a request has failed.
func (r *request) next() {
	if r.d.err != nil {
		return
	}
	r.doc, r.start = r.zipf.Next(), r.d.env.Now()
	r.px.Node.ExecAsync(25*time.Microsecond, r.admittedFn) // request processing
}

// admitted runs when request processing ends: decide between the cached
// response and a render.
func (r *request) admitted() {
	d := r.d
	r.entry = d.caches[r.pi][r.doc]
	switch {
	case r.entry == nil || d.cfg.Scheme == NoCache:
		r.render()
	case d.cfg.Scheme == TTLCache:
		if time.Duration(d.env.Now()-r.entry.storedAt) < ttl {
			r.serveCached()
		} else {
			r.render()
		}
	default:
		r.validate()
	}
}

// validate performs the RDMA coherence check: one one-sided read per app
// server touched by the document's dependency set, in server order; a
// mismatch does not skip the reads after it. Each read fetches the
// server's whole (small) version table; real deployments read the
// contiguous range covering the dependencies. A read samples target
// memory before it completes, so each concurrent validation holds its
// own buffer.
func (r *request) validate() {
	r.buf, r.server, r.match = r.px.GetBuf(8*objects), -1, true
	r.readNext()
}

// readNext issues the read of the next server the dependencies touch,
// or ends the validation.
func (r *request) readNext() {
	d := r.d
	for s := r.server + 1; s < appServers; s++ {
		if slices.ContainsFunc(d.deps[r.doc], func(dp dep) bool { return dp.server == s }) {
			r.server = s
			r.px.Issue(r.cq, verbs.WR{Op: verbs.OpRead, Target: d.versionMR[s].Addr(), Dst: r.buf})
			return
		}
	}
	r.px.PutBuf(r.buf)
	r.buf = nil
	if r.match {
		r.serveCached()
	} else {
		r.render()
	}
}

// validated runs at a validation read's completion. A failed read ends
// the client: the first failure is the run's error.
func (r *request) validated(c verbs.Completion) {
	d := r.d
	if c.Err != nil {
		r.px.PutBuf(r.buf)
		r.buf = nil
		if d.err == nil {
			d.err = fmt.Errorf("dyncache: client %d-%d: %w", r.pi, r.c, c.Err)
		}
		return
	}
	for i, dp := range d.deps[r.doc] {
		if dp.server == r.server && binary.LittleEndian.Uint64(r.buf[8*dp.object:]) != r.entry.versions[i] {
			r.match = false
		}
	}
	r.readNext()
}

// serveCached serves the proxy's entry: staleness is judged against
// ground truth now, then the response is copied out.
func (r *request) serveCached() {
	d := r.d
	r.stale = false
	for i, dp := range d.deps[r.doc] {
		if d.version(dp) != r.entry.versions[i] {
			r.stale = true
		}
	}
	d.env.After(d.nw.Params().CopyTime(responseBytes), r.egressFn)
}

// render performs a full back-end render: request to the document's
// primary app server, render CPU there, response transfer. Request and
// response ride TCP (the app tier speaks HTTP in the paper's multi-tier
// setup).
func (r *request) render() {
	r.entry = nil
	r.app().Node.ExecAsync(r.d.nw.Params().TCPCPUTime(128), r.reqCPUFn)
}

// app returns the document's primary app server.
func (r *request) app() *verbs.Device { return r.d.apps[r.d.deps[r.doc][0].server] }

// reqCPU runs when the app server has processed the request.
func (r *request) reqCPU() {
	r.d.env.After(r.d.nw.Params().TCPLatency, r.reqWireFn)
}

// reqWire runs when the request has crossed the wire: render.
func (r *request) reqWire() { r.app().Node.ExecAsync(renderCPU, r.renderedFn) }

// rendered runs when the render ends: the response carries the
// dependency versions of this instant.
func (r *request) rendered() {
	r.versions = r.d.currentVersions(r.doc)
	r.app().Node.ExecAsync(r.d.nw.Params().TCPCPUTime(responseBytes), r.respCPUFn)
}

// respCPU runs when the app server has processed the response: send it.
func (r *request) respCPU() {
	r.app().NIC().TransmitAsync(r.d.nw.Params().TCPTxTime(responseBytes), nil, r.respTxFn)
}

// respTx runs when the response's last byte leaves the app server.
func (r *request) respTx() { r.d.env.After(r.d.nw.Params().TCPLatency, r.respWireFn) }

// respWire runs when the response reaches the proxy.
func (r *request) respWire() {
	r.px.Node.ExecAsync(r.d.nw.Params().TCPCPUTime(responseBytes), r.recvFn)
}

// received runs when the proxy has received the rendered response: it
// caches it and starts egress.
func (r *request) received() {
	d := r.d
	if d.cfg.Scheme != NoCache {
		d.caches[r.pi][r.doc] = &cachedResponse{versions: r.versions, storedAt: d.env.Now()}
	}
	r.versions = nil
	r.egress()
}

// egress sends the response to the client.
func (r *request) egress() {
	r.px.NIC().TransmitAsync(r.d.nw.Params().TCPTxTime(responseBytes), nil, r.doneFn)
}

// done runs when the response's last byte is on the wire: count the
// request and issue the next.
func (r *request) done() {
	d := r.d
	if d.measuring {
		d.stats.Requests++
		d.latSum += time.Duration(d.env.Now() - r.start)
		if r.entry != nil {
			d.stats.CoherentHits++
			if r.stale {
				d.stats.StaleServed++
			}
		} else {
			d.stats.Renders++
		}
	}
	r.entry = nil
	r.next()
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
			rng := rand.New(rand.NewSource(cfg.Seed + int64(pi*100+c)))
			r := d.newRequest(pi, c, workload.NewZipf(rng, zipfAlpha, docs))
			d.env.After(0, r.next)
		}
	}
	d.env.At(sim.Time(warmup), func() { d.measuring = true })
}
