// Package qos implements the prioritization and soft-QoS support the
// framework's third layer provides ([Balaji et al., ISPASS'05] and the
// admission-control line of work, §2/§3): a front-end that uses one-sided
// RDMA reads of back-end load to decide, per request class, whether to
// admit a request during overload.
//
// Two policies are compared on an overloaded cluster hosting a premium
// and a basic website:
//
//   - NoControl: every request is dispatched to the least-loaded server;
//     both classes collapse together when offered load exceeds capacity.
//   - PriorityAdmission: the front-end reads the cluster load with
//     one-sided RDMA (accurate under overload — exactly when socket-based
//     readings fail) and rejects basic requests while the load factor
//     exceeds a threshold. Premium requests are always admitted, so their
//     latency stays bounded; basic clients back off and retry.
package qos

import (
	"fmt"
	"math/rand"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/metrics"
	"ngdc/internal/monitor"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// Class is a request class.
type Class int

// The two hosted websites.
const (
	Premium Class = iota
	Basic
)

func (c Class) String() string {
	if c == Premium {
		return "premium"
	}
	return "basic"
}

// Policy selects the admission behaviour.
type Policy int

// The compared policies.
const (
	NoControl Policy = iota
	PriorityAdmission
)

func (p Policy) String() string {
	if p == NoControl {
		return "no-control"
	}
	return "priority-admission"
}

// The testbed: a front end admitting two client classes to four back-end
// servers, loaded 2× past their capacity.
const (
	nServers = 4
	// premiumClients and basicClients are closed-loop client counts;
	// their sum is sized to exceed cluster capacity.
	premiumClients, basicClients = 16, 48
	// requestCPU is the per-request server cost.
	requestCPU = 4 * time.Millisecond
	// admitThreshold is the cluster load factor (run-queue per core)
	// above which basic requests are rejected.
	admitThreshold = 1.5
	// backoff is how long a rejected basic client waits before retrying.
	backoff = 20 * time.Millisecond
	// warmup is the virtual warm-up before measuring.
	warmup = 500 * time.Millisecond
)

// Config describes one overload experiment.
type Config struct {
	Policy Policy
	// Measure is the virtual measurement window.
	Measure time.Duration
	Seed    int64
	// ServiceOptions opens the run: registry, fault plan, calibration.
	runtime.ServiceOptions
}

// DefaultConfig returns a 2× overloaded two-class deployment.
func DefaultConfig(policy Policy) Config {
	return Config{
		Policy:  policy,
		Measure: 2 * time.Second,
		Seed:    1,
	}
}

// ClassStats is the per-class outcome.
type ClassStats struct {
	Requests  int64
	Rejected  int64
	TPS       float64
	MeanMs    float64
	P95Ms     float64
	latencies metrics.Sample
}

// Stats is the outcome of one run.
type Stats struct {
	Policy  Policy
	Premium ClassStats
	Basic   ClassStats
}

// Run executes one experiment.
func Run(cfg Config) (Stats, error) {
	env := cfg.NewEnv(cfg.Seed)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, cfg.Fabric())
	front := cluster.NewNode(env, 0, 4, 1<<30)
	var servers []*cluster.Node
	for i := 1; i <= nServers; i++ {
		servers = append(servers, cluster.NewNode(env, i, 2, 1<<30))
	}
	// Load readings come from the paper's RDMA-Sync monitoring — accurate
	// even during the overload the policy must react to.
	st := monitor.NewStation(monitor.RDMASync, nw, front, servers, time.Millisecond)
	st.Start()

	stats := Stats{Policy: cfg.Policy}
	classOf := map[Class]*ClassStats{Premium: &stats.Premium, Basic: &stats.Basic}
	measuring := false

	totalCores := 0
	for _, s := range servers {
		totalCores += s.Cores()
	}

	// clusterLoad returns run-queue depth per core across the cluster.
	clusterLoad := func(p *sim.Proc) float64 {
		total := 0
		for i := range servers {
			total += st.Sample(p, i).RunQueue
		}
		return float64(total) / float64(totalCores)
	}

	leastLoaded := func(p *sim.Proc) int {
		best, bestQ := 0, int(^uint(0)>>1)
		for i := range servers {
			if q := st.Sample(p, i).RunQueue; q < bestQ {
				best, bestQ = i, q
			}
		}
		return best
	}

	spawn := func(class Class, id int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(int(class)*1000+id)))
		env.GoDaemon(fmt.Sprintf("%v-client%d", class, id), func(p *sim.Proc) {
			cs := classOf[class]
			for {
				start := p.Now()
				if cfg.Policy == PriorityAdmission && class == Basic {
					if clusterLoad(p) > admitThreshold {
						if measuring {
							cs.Rejected++
						}
						p.Sleep(backoff + time.Duration(rng.Intn(int(backoff))))
						continue
					}
				}
				i := leastLoaded(p)
				p.Sleep(60 * time.Microsecond) // dispatch hop
				servers[i].ExecSliced(p, requestCPU, time.Millisecond)
				p.Sleep(60 * time.Microsecond)
				if measuring {
					cs.Requests++
					cs.latencies.AddDuration(time.Duration(p.Now() - start))
				}
				p.Sleep(time.Duration(rng.Intn(int(2 * time.Millisecond))))
			}
		})
	}
	for i := 0; i < premiumClients; i++ {
		spawn(Premium, i)
	}
	for i := 0; i < basicClients; i++ {
		spawn(Basic, i)
	}

	env.At(sim.Time(warmup), func() { measuring = true })
	if err := env.RunUntil(sim.Time(warmup + cfg.Measure)); err != nil {
		return stats, err
	}
	for _, cs := range classOf {
		cs.TPS = float64(cs.Requests) / cfg.Measure.Seconds()
		cs.MeanMs = cs.latencies.Mean() / 1000 // sample stores µs
		cs.P95Ms = cs.latencies.Percentile(95) / 1000
	}
	return stats, nil
}
