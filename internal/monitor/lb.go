package monitor

import (
	"fmt"
	"math/rand"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
	"ngdc/internal/workload"
)

// The Fig 8b testbed mirrors the paper's two-service hosting setup.
const (
	lbServers = 4
	lbClients = 24
	// lbInterval is the monitoring period for the interval-based schemes.
	lbInterval = 100 * time.Millisecond
	// lbWarmup is the virtual warm-up before measuring.
	lbWarmup = 500 * time.Millisecond
)

// LBConfig describes the Fig 8b experiment: a load balancer routes a web
// workload across back-end servers using load readings obtained with one
// monitoring scheme. Stale or delayed readings cause request herding onto
// apparently idle servers and cost throughput.
type LBConfig struct {
	Scheme Scheme
	// Alpha is the Zipf exponent of the document trace; ignored when
	// RUBiS is set.
	Alpha float64
	// RUBiS selects the auction mix instead of the Zipf document trace.
	RUBiS bool
	// Measure is the virtual measurement window.
	Measure time.Duration
	Seed    int64
	// ServiceOptions opens the run: registry, fault plan, calibration.
	runtime.ServiceOptions
}

// DefaultLBConfig returns a Fig 8b run over a Zipf trace of exponent alpha.
func DefaultLBConfig(scheme Scheme, alpha float64) LBConfig {
	return LBConfig{
		Scheme:  scheme,
		Alpha:   alpha,
		Measure: 2 * time.Second,
		Seed:    1,
	}
}

// LBStats is the outcome of one Fig 8b run.
type LBStats struct {
	Scheme   Scheme
	Requests int64
	TPS      float64
	// MeanLatencyMs is the average end-to-end request latency.
	MeanLatencyMs float64
}

// dispatchLatency is the fixed network hop cost of routing one request.
const dispatchLatency = 60 * time.Microsecond

// docCost derives a request's CPU demand from its document rank: the
// divergent per-request resource usage of real traces, deterministic per
// document.
func docCost(doc int) time.Duration {
	h := uint64(doc)*2654435761 + 12345
	spread := []time.Duration{
		500 * time.Microsecond,
		time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		16 * time.Millisecond,
		32 * time.Millisecond,
	}
	return spread[h%uint64(len(spread))]
}

// RunLB runs the Fig 8b experiment for one scheme.
func RunLB(cfg LBConfig) (LBStats, error) {
	env := cfg.NewEnv(cfg.Seed)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, cfg.Fabric())
	front := cluster.NewNode(env, 0, 4, 1<<30)
	var servers []*cluster.Node
	for i := 1; i <= lbServers; i++ {
		servers = append(servers, cluster.NewNode(env, i, 2, 1<<30))
	}
	// The interval a scheme can afford differs: one-sided polling is
	// cheap enough for millisecond granularity, socket-based polling is
	// not (it costs GatherCPU of server time per reading).
	interval := lbInterval
	if cfg.Scheme.UsesRDMA() && RecommendedInterval(cfg.Scheme) < interval {
		interval = RecommendedInterval(cfg.Scheme)
	}
	st := NewStation(cfg.Scheme, nw, front, servers, interval)
	st.Start()

	// Front-side accounting of dispatched-but-unfinished requests: the
	// extended information only e-RDMA-Sync exploits.
	outstanding := make([]int, lbServers)

	measuring := false
	stats := LBStats{Scheme: cfg.Scheme}
	var latSum time.Duration

	pick := func(p *sim.Proc) int {
		best, bestLoad := 0, int(^uint(0)>>1)
		for i := range servers {
			snap := st.Sample(p, i)
			load := snap.RunQueue
			if cfg.Scheme == ERDMASync {
				if outstanding[i] > load {
					load = outstanding[i]
				}
			}
			if load < bestLoad {
				best, bestLoad = i, load
			}
		}
		return best
	}

	for c := 0; c < lbClients; c++ {
		var nextCost func() time.Duration
		if cfg.RUBiS {
			mix := workload.NewMix(rand.New(rand.NewSource(cfg.Seed+int64(c))), workload.RUBiSClasses())
			nextCost = func() time.Duration { return mix.Next().CPU }
		} else {
			zipf := workload.NewZipf(rand.New(rand.NewSource(cfg.Seed+int64(c))), cfg.Alpha, 2048)
			nextCost = func() time.Duration { return docCost(zipf.Next()) }
		}
		env.GoDaemon(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for {
				cost := nextCost()
				start := p.Now()
				i := pick(p)
				outstanding[i]++
				p.Sleep(dispatchLatency)
				servers[i].ExecSliced(p, cost, time.Millisecond)
				p.Sleep(dispatchLatency)
				outstanding[i]--
				if measuring {
					stats.Requests++
					latSum += time.Duration(p.Now() - start)
				}
			}
		})
	}
	env.At(sim.Time(lbWarmup), func() { measuring = true })
	if err := env.RunUntil(sim.Time(lbWarmup + cfg.Measure)); err != nil {
		return stats, err
	}
	stats.TPS = float64(stats.Requests) / cfg.Measure.Seconds()
	if stats.Requests > 0 {
		stats.MeanLatencyMs = float64(latSum.Milliseconds()) / float64(stats.Requests)
	}
	return stats, nil
}

// Improvement runs the Fig 8b sweep: every scheme against the Socket-Async
// baseline for one trace, returning percentage TPS improvements. Every
// run is opened with o.
func Improvement(alpha float64, rubis bool, seed int64, o runtime.ServiceOptions) (map[Scheme]float64, map[Scheme]LBStats, error) {
	stats := map[Scheme]LBStats{}
	for _, sc := range Schemes {
		cfg := DefaultLBConfig(sc, alpha)
		cfg.RUBiS = rubis
		cfg.Seed = seed
		cfg.ServiceOptions = o
		s, err := RunLB(cfg)
		if err != nil {
			return nil, nil, err
		}
		stats[sc] = s
	}
	base := stats[SocketAsync].TPS
	imp := map[Scheme]float64{}
	for sc, s := range stats {
		if base > 0 {
			imp[sc] = (s.TPS - base) / base * 100
		}
	}
	return imp, stats, nil
}
