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

// Config describes one integrated run.
type Config struct {
	Stack   Stack
	Proxies int
	// ClientsPerService is the closed-loop client count per website.
	ClientsPerService int
	// Phase is how long each load direction lasts before services swap.
	Phase time.Duration
	// DocsPerService and FileSize shape the working sets.
	DocsPerService int
	FileSize       int64
	// ProxyMem is each proxy's cache capacity.
	ProxyMem int64
	// RequestCPU is the per-request page-generation cost on the proxy:
	// the signal the load readings and reconfiguration react to.
	RequestCPU      time.Duration
	ZipfAlpha       float64
	Warmup, Measure time.Duration
	Seed            int64
	// ServiceOptions opens the run: registry, fault plan, calibration.
	runtime.ServiceOptions
}

// DefaultConfig returns the integrated-evaluation shape: working sets
// that do not fit one proxy, and load that swaps between the services.
func DefaultConfig(stack Stack) Config {
	return Config{
		Stack:             stack,
		Proxies:           6,
		ClientsPerService: 12,
		Phase:             time.Second,
		DocsPerService:    1024,
		FileSize:          16 << 10,
		ProxyMem:          8 << 20,
		RequestCPU:        1500 * time.Microsecond,
		ZipfAlpha:         0.9,
		Warmup:            500 * time.Millisecond,
		Measure:           3 * time.Second,
		Seed:              1,
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
	env := cfg.NewEnv(cfg.Seed)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, cfg.Fabric())
	pp := nw.Params()

	front := cluster.NewNode(env, 0, 4, 1<<30)
	type proxy struct {
		node  *cluster.Node
		dev   *verbs.Device
		cache *lru.Cache[int]
	}
	proxies := make([]*proxy, cfg.Proxies)
	nodes := make([]*cluster.Node, cfg.Proxies)
	assign := make([]int, cfg.Proxies)
	for i := range proxies {
		n := cluster.NewNode(env, i+1, 2, 1<<30)
		proxies[i] = &proxy{node: n, dev: nw.Attach(n), cache: lru.New[int](cfg.ProxyMem)}
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

	// Shared directory for cooperative caching (RDMA stack): doc -> proxy
	// indices holding it. Lookups from a proxy cost one one-sided read.
	directory := map[int]map[int]bool{}
	dirAdd := func(doc, pi int) {
		if directory[doc] == nil {
			directory[doc] = map[int]bool{}
		}
		directory[doc][pi] = true
	}
	dirRemove := func(doc, pi int) {
		if directory[doc] != nil {
			delete(directory[doc], pi)
		}
	}
	dirFind := func(doc, exclude int) int {
		best := -1
		for pi := range directory[doc] {
			if pi == exclude || !proxies[pi].cache.Contains(doc) {
				continue
			}
			if best == -1 || pi < best {
				best = pi
			}
		}
		return best
	}

	backend := sim.NewResource(env, "backend", 8)
	stats := Stats{Stack: cfg.Stack}
	var lat metrics.Sample
	measuring := false

	// serve processes one request for (service, doc) at proxy pi.
	serve := func(p *sim.Proc, pi, service, doc int) {
		px := proxies[pi]
		key := docKey(service, doc)
		px.node.ExecSliced(p, cfg.RequestCPU, time.Millisecond)
		switch {
		case px.cache.Get(key):
			p.Sleep(pp.CopyTime(int(cfg.FileSize)))
		case cfg.Stack == RDMAStack:
			p.Sleep(pp.IBReadLatency) // directory lookup
			if holder := dirFind(key, pi); holder >= 0 {
				// One-sided refill from the sibling's cache.
				h := proxies[holder]
				p.Sleep(pp.IBReadLatency / 2)
				h.dev.NIC().AcquireTx(p, pp.IBTxTime(int(cfg.FileSize)))
				p.Sleep(pp.IBReadLatency / 2)
				if measuring {
					stats.SiblingFills++
				}
			} else {
				backend.Use(p, 1, pp.BackendTime(int(cfg.FileSize)))
				if measuring {
					stats.BackendFetches++
				}
			}
			for _, ev := range px.cache.Put(key, cfg.FileSize) {
				dirRemove(ev, pi)
			}
			dirAdd(key, pi)
		default:
			backend.Use(p, 1, pp.BackendTime(int(cfg.FileSize)))
			if measuring {
				stats.BackendFetches++
			}
			px.cache.Put(key, cfg.FileSize)
		}
		px.node.Exec(p, pp.TCPCPUTime(int(cfg.FileSize)))
		px.dev.NIC().AcquireTx(p, pp.TCPTxTime(int(cfg.FileSize)))
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
		if int(now/sim.Time(cfg.Phase))%2 == service {
			return 500 * time.Microsecond
		}
		return 30 * time.Millisecond
	}

	for s := 0; s < 2; s++ {
		for c := 0; c < cfg.ClientsPerService; c++ {
			s, c := s, c
			rng := rand.New(rand.NewSource(cfg.Seed + int64(s*1000+c)))
			zipf := workload.NewZipf(rng, cfg.ZipfAlpha, cfg.DocsPerService)
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

	env.At(sim.Time(cfg.Warmup), func() { measuring = true })
	if err := env.RunUntil(sim.Time(cfg.Warmup + cfg.Measure)); err != nil {
		return stats, err
	}
	stats.TPS = float64(stats.Requests) / cfg.Measure.Seconds()
	stats.P95Ms = lat.Percentile(95) / 1000
	return stats, nil
}
