package coopcache

import (
	"fmt"
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

// serveRequest is the proxy request pipeline: HTTP processing, cache
// lookup under the configured scheme, and response egress to the client.
// The whole pipeline runs as a pooled event chain (see chain.go): the
// client parks exactly once per request, and continues inside the event
// that frees the proxy's transmit engine, the instant the response's last
// byte is on the wire; it records the egress op itself.
func (dc *DataCenter) serveRequest(p *sim.Proc, px *cacheNode, doc int) outcome {
	rc := dc.getReq()
	rc.p, rc.px, rc.doc, rc.size, rc.depth = p, px, doc, dc.cfg.sizeOf(doc), 0
	rc.start()
	p.Park(reasonServe)
	out, size := rc.out, rc.size
	if dc.tr != nil {
		pp := dc.nw.Params()
		dc.tr.RecordOp(trace.OpTCP, pp.TCPTxTime(int(size)), pp.TCPCPUTime(int(size)))
	}
	dc.putReq(rc)
	return out
}

// placeMostFree picks the pool node with the most free cache space,
// preferring the requesting proxy on ties.
func (dc *DataCenter) placeMostFree(px *cacheNode) *cacheNode {
	best := px
	for _, cn := range dc.pool() {
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
		for c := 0; c < cfg.ClientsPerProxy; c++ {
			px := px
			rng := rand.New(rand.NewSource(cfg.Seed + int64(pi*1000+c)))
			zipf := workload.NewZipf(rng, cfg.ZipfAlpha, cfg.docCount())
			dc.env.GoDaemon(fmt.Sprintf("client-%d-%d", pi, c), func(p *sim.Proc) {
				for {
					doc := zipf.Next()
					out := dc.serveRequest(p, px, doc)
					if dc.measuring {
						dc.stats.Requests++
						switch out {
						case outLocal:
							dc.stats.LocalHits++
						case outRemote:
							dc.stats.RemoteHits++
						case outMiss:
							dc.stats.Misses++
						}
					}
				}
			})
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
