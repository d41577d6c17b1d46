// Package integrated runs the evaluation §6 of the paper calls for:
// "each of these designs cannot be evaluated in a standalone fashion, but
// needs to be seen in an integrated environment". Two complete stacks
// serve the same shifting two-service workload on the same hardware:
//
//   - Traditional: independent per-proxy caches, coarse socket-based
//     load monitoring, naive instantaneous reconfiguration.
//   - RDMAStack: cooperative caching across the service's proxies (misses
//     fill from a sibling with a one-sided read), fine-grained RDMA-Sync
//     monitoring, and history-aware reconfiguration.
//
// Reconfiguration is reconfig.Rule, the decision rule E11 ablates, with
// the policy each stack names; only its load signal is the stack's own
// monitoring station.
//
// The interactions the paper warns about appear naturally: a
// reconfiguration move hands a proxy a cold cache for its new service
// (the "cache corruption" of §6) — the traditional stack both moves more
// often (naive policy chasing noise) and pays more per move (no sibling
// to refill from), while its stale load readings herd requests onto the
// wrong proxies.
package integrated

import (
	"fmt"
	"math/rand"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/lru"
	"ngdc/internal/metrics"
	"ngdc/internal/monitor"
	"ngdc/internal/reconfig"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
	"ngdc/internal/workload"
)

// Stack selects the full-stack configuration.
type Stack int

// The compared stacks.
const (
	Traditional Stack = iota
	RDMAStack
)

func (s Stack) String() string {
	if s == Traditional {
		return "traditional"
	}
	return "rdma-framework"
}

// The testbed: working sets that do not fit one proxy, and load that
// swaps between the services.
const (
	nProxies = 6
	// clientsPerService is the closed-loop client count per website.
	clientsPerService = 12
	// phase is how long each load direction lasts before services swap.
	phase = time.Second
	// docsPerService and fileSize shape the working sets.
	docsPerService = 1024
	fileSize       = 16 << 10
	// proxyMem is each proxy's cache capacity.
	proxyMem = 8 << 20
	// requestCPU is the per-request page-generation cost on the proxy:
	// the signal the load readings and reconfiguration react to.
	requestCPU = 1500 * time.Microsecond
	zipfAlpha  = 0.9
	// warmup is the virtual warm-up before measuring.
	warmup = 500 * time.Millisecond
)

// Config describes one integrated run.
type Config struct {
	Stack Stack
	// Measure is the virtual measurement window.
	Measure time.Duration
	Seed    int64
	// ServiceOptions opens the run: registry, fault plan, calibration.
	runtime.ServiceOptions
}

// DefaultConfig returns the integrated-evaluation shape.
func DefaultConfig(stack Stack) Config {
	return Config{
		Stack:   stack,
		Measure: 3 * time.Second,
		Seed:    1,
	}
}

// Stats is the outcome of one run.
type Stats struct {
	Stack     Stack
	Requests  int64
	TPS       float64
	P95Ms     float64
	Reconfigs int
	// SiblingFills counts cooperative refills after misses (RDMA stack
	// only).
	SiblingFills int64
	// BackendFetches counts origin fetches.
	BackendFetches int64
}

// docKey namespaces documents per service.
func docKey(service, doc int) int { return service*1_000_000 + doc }

// Run executes one integrated experiment.
func Run(cfg Config) (Stats, error) {
	env := cfg.NewEnv()
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, cfg.Fabric())
	pp := nw.Params()

	front := cluster.NewNode(env, 0, 4, 1<<30)
	type proxy struct {
		node  *cluster.Node
		dev   *verbs.Device
		cache *lru.Cache[int]
	}
	proxies := make([]*proxy, nProxies)
	nodes := make([]*cluster.Node, nProxies)
	assign := make([]int, nProxies)
	for i := range proxies {
		n := cluster.NewNode(env, i+1, 2, 1<<30)
		proxies[i] = &proxy{node: n, dev: nw.Attach(n), cache: lru.New[int](proxyMem)}
		nodes[i] = n
		assign[i] = i % 2
	}

	// Monitoring: the stack decides accuracy and granularity.
	monScheme := monitor.SocketAsync
	if cfg.Stack == RDMAStack {
		monScheme = monitor.RDMASync
	}
	station := monitor.NewStation(monScheme, nw, front, nodes, monitor.RecommendedInterval(monScheme))
	station.Start()

	// Cooperative caching (RDMA stack): a lookup from a proxy costs one
	// one-sided read and finds the lowest-indexed other proxy whose cache
	// holds the document.
	holderOf := func(doc, exclude int) int {
		for pi, px := range proxies {
			if pi != exclude && px.cache.Contains(doc) {
				return pi
			}
		}
		return -1
	}

	backend := sim.NewResource(env, "backend", 8)
	stats := Stats{Stack: cfg.Stack}
	var lat metrics.Sample
	measuring := false

	// serve processes one request for (service, doc) at proxy pi.
	serve := func(p *sim.Proc, pi, service, doc int) {
		px := proxies[pi]
		key := docKey(service, doc)
		px.node.ExecSliced(p, requestCPU, time.Millisecond)
		switch {
		case px.cache.Get(key):
			p.Sleep(pp.CopyTime(fileSize))
		case cfg.Stack == RDMAStack:
			p.Sleep(pp.IBReadLatency) // directory lookup
			if holder := holderOf(key, pi); holder >= 0 {
				// One-sided refill from the sibling's cache.
				h := proxies[holder]
				p.Sleep(pp.IBReadLatency / 2)
				h.dev.NIC().AcquireTx(p, pp.IBTxTime(fileSize))
				p.Sleep(pp.IBReadLatency / 2)
				if measuring {
					stats.SiblingFills++
				}
			} else {
				backend.Use(p, 1, pp.BackendTime(fileSize))
				if measuring {
					stats.BackendFetches++
				}
			}
			px.cache.Put(key, fileSize)
		default:
			backend.Use(p, 1, pp.BackendTime(fileSize))
			if measuring {
				stats.BackendFetches++
			}
			px.cache.Put(key, fileSize)
		}
		px.node.Exec(p, pp.TCPCPUTime(fileSize))
		px.dev.NIC().AcquireTx(p, pp.TCPTxTime(fileSize))
	}

	// pickProxy routes to the least-loaded proxy assigned to the service,
	// by the monitoring station's belief.
	pickProxy := func(p *sim.Proc, service int) int {
		best, bestQ := -1, 0
		for i := range proxies {
			if assign[i] != service {
				continue
			}
			q := station.Sample(p, i).RunQueue
			if best == -1 || q < bestQ {
				best, bestQ = i, q
			}
		}
		return best
	}

	phaseThink := func(now sim.Time, service int) time.Duration {
		if int(now/sim.Time(phase))%2 == service {
			return 500 * time.Microsecond
		}
		return 30 * time.Millisecond
	}

	for s := 0; s < 2; s++ {
		for c := 0; c < clientsPerService; c++ {
			s, c := s, c
			rng := rand.New(rand.NewSource(cfg.Seed + int64(s*1000+c)))
			zipf := workload.NewZipf(rng, zipfAlpha, docsPerService)
			env.GoDaemon(fmt.Sprintf("svc%d-client%d", s, c), func(p *sim.Proc) {
				for {
					doc := zipf.Next()
					start := p.Now()
					pi := pickProxy(p, s)
					if pi < 0 {
						p.Sleep(time.Millisecond)
						continue
					}
					serve(p, pi, s, doc)
					if measuring {
						stats.Requests++
						lat.AddDuration(time.Duration(p.Now() - start))
					}
					think := phaseThink(p.Now(), s)
					p.Sleep(think + time.Duration(rng.Intn(int(think/2)+1)))
				}
			})
		}
	}

	// Reconfiguration: move proxies toward the loaded service, by the
	// monitoring station's load readings and reconfig's rule. A moved
	// proxy keeps its cache, but the cache holds the *other* service's
	// documents — useless for the new one, so the move is cache-cold.
	rule := reconfig.Rule{Policy: reconfig.Naive}
	if cfg.Stack == RDMAStack {
		rule.Policy = reconfig.HistoryAware
	}
	env.GoDaemon("reconfig", func(p *sim.Proc) {
		for {
			p.Sleep(reconfig.DecideEvery)
			var load [2]float64
			var count [2]int
			for i := range proxies {
				load[assign[i]] += float64(station.Sample(p, i).RunQueue)
				count[assign[i]]++
			}
			from, to, ok := rule.Decide(p.Now(), load, count)
			if !ok {
				continue
			}
			if victim := reconfig.LeastLoaded(nodes, assign, from); victim >= 0 {
				assign[victim] = to
				stats.Reconfigs++
				rule.Moved(p.Now())
			}
		}
	})

	env.At(sim.Time(warmup), func() { measuring = true })
	if err := env.RunUntil(sim.Time(warmup + cfg.Measure)); err != nil {
		return stats, err
	}
	stats.TPS = float64(stats.Requests) / cfg.Measure.Seconds()
	stats.P95Ms = lat.Percentile(95) / 1000
	return stats, nil
}
