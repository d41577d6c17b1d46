package coopcache

import (
	"math/rand"

	"ngdc/internal/sim"
	"ngdc/internal/trace"
	"ngdc/internal/workload"
)

// outcome is how a request was satisfied: from the proxy's own cache,
// from another pool node's cache, or from the origin.
type outcome int

const (
	outLocal outcome = iota
	outRemote
	outMiss
)

// client is one closed-loop client of a proxy. It runs no process: its
// request is an event chain on its own record through the proxy pipeline
// (see chain.go), and the event that puts the response's last byte on
// the wire ends it — records the egress op, counts the outcome — and
// issues the client's next request on the same record.
type client struct {
	reqChain
	zipf *workload.Zipf
}

// newClient builds a client of px drawing its documents from zipf.
func newClient(dc *DataCenter, px *cacheNode, zipf *workload.Zipf) *client {
	cl := &client{zipf: zipf}
	cl.bind(dc, px, cl.done)
	return cl
}

// next draws the client's next document and starts its request: HTTP
// processing, cache lookup under the configured scheme, and response
// egress to the client.
func (cl *client) next() {
	doc := cl.zipf.Next()
	cl.doc, cl.size, cl.depth = doc, cl.dc.cfg.sizeOf(doc), 0
	cl.start()
}

// done ends a request at the egress-complete instant and issues the
// client's next one.
func (cl *client) done() {
	dc := cl.dc
	if dc.tr != nil {
		pp := dc.nw.Params()
		dc.tr.RecordOp(trace.OpTCP, pp.TCPTxTime(int(cl.size)), pp.TCPCPUTime(int(cl.size)))
	}
	if dc.measuring {
		dc.stats.Requests++
		switch cl.out {
		case outLocal:
			dc.stats.LocalHits++
		case outRemote:
			dc.stats.RemoteHits++
		case outMiss:
			dc.stats.Misses++
		}
	}
	cl.next()
}

// placeMostFree picks the node with the most free cache space across
// the proxies and the application tier — the MTACC and HYBCC pool —
// preferring the requesting proxy on ties.
func (dc *DataCenter) placeMostFree(px *cacheNode) *cacheNode {
	best := px
	for _, cn := range dc.nodes {
		if cn.cache.Free() > best.cache.Free() {
			best = cn
		}
	}
	return best
}

// hybridHotCount is how many requests a document must accumulate at one
// proxy before HYBCC considers it worth duplicating there.
const hybridHotCount = 8

// RunLoad drives the configured closed-loop clients through warm-up and
// measurement and returns the statistics. The environment Build opened
// is shut down afterwards.
func (dc *DataCenter) RunLoad() (Stats, error) {
	defer dc.env.Shutdown()
	cfg := dc.cfg
	for pi, px := range dc.proxies {
		for c := 0; c < clientsPerProxy; c++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(pi*1000+c)))
			cl := newClient(dc, px, workload.NewZipf(rng, zipfAlpha, cfg.docCount()))
			dc.env.After(0, cl.next)
		}
	}
	dc.env.At(sim.Time(cfg.Warmup), func() { dc.measuring = true })
	if err := dc.env.RunUntil(sim.Time(cfg.Warmup + cfg.Measure)); err != nil {
		return Stats{}, err
	}
	dc.stats.Scheme = cfg.Scheme
	dc.stats.TPS = float64(dc.stats.Requests) / cfg.Measure.Seconds()
	dc.stats.DuplicateBytes = dc.duplicateBytes()
	return dc.stats, nil
}

// duplicateBytes sums cache space beyond the first copy of each document.
func (dc *DataCenter) duplicateBytes() int64 {
	copies := make([]int, dc.cfg.docCount())
	for _, cn := range dc.nodes {
		for _, doc := range cn.cache.Keys() {
			copies[doc]++
		}
		if cn.replica != nil {
			for _, doc := range cn.replica.Keys() {
				copies[doc]++
			}
		}
	}
	var dup int64
	for doc, n := range copies {
		if n > 1 {
			dup += int64(n-1) * dc.cfg.sizeOf(doc)
		}
	}
	return dup
}

// Run builds and drives one experiment.
func Run(cfg Config) (Stats, error) {
	return Build(cfg).RunLoad()
}
