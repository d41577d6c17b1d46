// Package reconfig implements the paper's active resource adaptation
// service ([Balaji et al., RAIT'04] and §6): back-end nodes are
// dynamically reassigned between the hosted services as load shifts.
//
// Two concerns from the paper are modelled explicitly:
//
//   - Concurrency control: several front-end reconfiguration agents may
//     decide to reconfigure at once; they serialize through a one-sided
//     compare-and-swap on a shared lock word, so moves never race and
//     agents never livelock (a failed CAS just skips the round).
//   - History-aware reconfiguration: the naive policy acts on
//     instantaneous load samples and thrashes — nodes ping-pong between
//     services, each move paying a cache-warmup penalty. The history-aware
//     policy smooths load with an EWMA, requires a larger sustained
//     imbalance, and enforces a cooldown, trading reaction speed for
//     stability.
package reconfig

import (
	"fmt"
	"math/rand"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/monitor"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// Policy selects the reconfiguration decision rule.
type Policy int

// The two policies of the E11 ablation.
const (
	Naive Policy = iota
	HistoryAware
)

func (p Policy) String() string {
	if p == Naive {
		return "naive"
	}
	return "history-aware"
}

// The E11 testbed: two hosted services whose offered load alternates in
// phases.
const (
	// nNodes is the back-end pool size (split between the two services).
	nNodes = 6
	// clientsPerService is the closed-loop client count per service.
	clientsPerService = 16
	// phaseLen is how long each load direction lasts.
	phaseLen = 1200 * time.Millisecond
	// agents is the number of concurrent reconfiguration agents
	// (exercises the CAS-based concurrency control).
	agents = 2
	// warmup is the virtual warm-up before measuring.
	warmup = 300 * time.Millisecond
)

// Config describes one reconfiguration experiment.
type Config struct {
	Policy Policy
	// Measure is the virtual measurement window.
	Measure time.Duration
	Seed    int64
	// ServiceOptions opens the run: registry, fault plan, calibration. A
	// non-nil Faults also enables the monitor-driven failure detector: an
	// RDMA-Async station watches the back-end pool, and nodes it suspects
	// down are failed out of their service (and re-admitted when the
	// station sees them again after a restart).
	runtime.ServiceOptions
}

// DefaultConfig returns the E11 ablation shape.
func DefaultConfig(policy Policy) Config {
	return Config{
		Policy:  policy,
		Measure: 3 * time.Second,
		Seed:    1,
	}
}

// Result is the outcome of one run.
type Result struct {
	Policy   Policy
	Requests int64
	TPS      float64
	// Reconfigs counts node moves; thrashing shows up here.
	Reconfigs int
	// CASConflicts counts reconfiguration rounds skipped because another
	// agent held the lock (the concurrency-control path).
	CASConflicts int
	// Failovers counts nodes the failure detector removed from their
	// service after suspecting them down (fault plans only).
	Failovers int
}

// DecideEvery is how often a reconfiguration loop samples load and asks
// its Rule for a move.
const DecideEvery = 50 * time.Millisecond

// Decision/behaviour constants.
const (
	warmupPenalty = 600 * time.Millisecond // cold-cache window after a move
	coldFactor    = 3                      // request slowdown on a cold node
	requestCPU    = 3 * time.Millisecond
	// naiveThreshold triggers on any imbalance beyond one task; the
	// history-aware policy requires a sustained gap.
	naiveThreshold   = 1.0
	historyThreshold = 2.5
	historyCooldown  = 300 * time.Millisecond
	ewmaAlpha        = 0.25
)

// Rule is one reconfiguration loop's decision rule. It compares the
// mean load of the two services' nodes against the policy's threshold
// and never strips a service of its last node. HistoryAware smooths the
// imbalance with an EWMA, needs a wider gap, and waits out a cooldown
// after each move. The zero value of the other fields is a loop that has
// not moved yet.
type Rule struct {
	Policy   Policy
	ewma     float64
	lastMove sim.Time
}

// Decide takes each service's summed load and node count at now and
// returns the service to take a node from and the one to give it to; ok
// is false when no move is due.
func (r *Rule) Decide(now sim.Time, loadSums [2]float64, counts [2]int) (from, to int, ok bool) {
	for s := range loadSums {
		if counts[s] > 0 {
			loadSums[s] /= float64(counts[s])
		}
	}
	imbalance := loadSums[0] - loadSums[1]
	threshold := naiveThreshold
	if r.Policy == HistoryAware {
		r.ewma = ewmaAlpha*imbalance + (1-ewmaAlpha)*r.ewma
		imbalance = r.ewma
		threshold = historyThreshold
		if time.Duration(now-r.lastMove) < historyCooldown {
			return 0, 0, false
		}
	}
	switch {
	case imbalance > threshold:
		from, to = 1, 0
	case imbalance < -threshold:
		from, to = 0, 1
	default:
		return 0, 0, false
	}
	return from, to, counts[from] > 1
}

// Moved records a move made at now: the EWMA restarts from zero and the
// cooldown starts.
func (r *Rule) Moved(now sim.Time) {
	r.ewma = 0
	r.lastMove = now
}

// LeastLoaded returns the node assigned to service with the shortest run
// queue, the lowest index on a tie, or -1 when the service has none.
func LeastLoaded(nodes []*cluster.Node, assign []int, service int) int {
	best := -1
	for i, n := range nodes {
		if assign[i] == service && (best == -1 || n.RunQueueLen() < nodes[best].RunQueueLen()) {
			best = i
		}
	}
	return best
}

// Run executes the experiment.
func Run(cfg Config) (Result, error) {
	env := cfg.NewEnv(cfg.Seed)
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, cfg.Fabric())
	front := cluster.NewNode(env, 0, 2, 1<<30)
	frontDev := nw.Attach(front)
	lockMR := frontDev.RegisterAtSetup(make([]byte, 8))

	nodes := make([]*cluster.Node, nNodes)
	assign := make([]int, nNodes) // node -> service (0 or 1)
	coldUntil := make([]sim.Time, nNodes)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i+1, 2, 1<<30)
		nw.Attach(nodes[i])
		assign[i] = i % 2
	}

	res := Result{Policy: cfg.Policy}
	measuring := false

	// Monitor-driven failure detection, only under a fault plan: the
	// default (healthy) runs keep their exact pre-fault event stream.
	if cfg.Faults != nil {
		st := monitor.NewStation(monitor.RDMAAsync, nw, front, nodes, monitor.FineInterval)
		st.Start()
		env.GoDaemon("failure-detector", func(p *sim.Proc) {
			for {
				p.Sleep(monitor.FineInterval)
				for i := range nodes {
					switch {
					case st.Down(i) && assign[i] >= 0:
						// Fail the suspect out of its service so clients stop
						// routing work to it.
						assign[i] = -1
						res.Failovers++
					case !st.Down(i) && assign[i] < 0:
						// The node answered reads again (restart): re-admit it
						// to its original service.
						assign[i] = i % 2
					}
				}
			}
		})
	}

	// phaseBias returns how strongly service s is loaded right now: the
	// offered load alternates between the services each phaseLen.
	phaseBias := func(now sim.Time, service int) time.Duration {
		phase := int(now/sim.Time(phaseLen)) % 2
		if phase == service {
			return 2 * time.Millisecond // hot: short think time
		}
		return 40 * time.Millisecond // cold: long think time
	}

	for s := 0; s < 2; s++ {
		for c := 0; c < clientsPerService; c++ {
			s, c := s, c
			rng := rand.New(rand.NewSource(cfg.Seed + int64(s*1000+c)))
			env.GoDaemon(fmt.Sprintf("svc%d-client%d", s, c), func(p *sim.Proc) {
				for {
					// Bursty arrivals: short-lived spikes make
					// instantaneous load samples a poor reconfiguration
					// signal — the noise the naive policy chases.
					burst := 1
					if rng.Float64() < 0.15 {
						burst = 6
					}
					for b := 0; b < burst; b++ {
						i := LeastLoaded(nodes, assign, s)
						if i < 0 {
							p.Sleep(time.Millisecond)
							continue
						}
						cost := requestCPU
						if p.Now() < coldUntil[i] {
							cost *= coldFactor // cold cache after a move
						}
						nodes[i].ExecSliced(p, cost, time.Millisecond)
						if measuring {
							res.Requests++
						}
					}
					think := phaseBias(p.Now(), s)
					jitter := time.Duration(rng.Intn(int(think/2) + 1))
					p.Sleep(think + jitter)
				}
			})
		}
	}

	// Reconfiguration agents, each with its own Rule.
	for a := 0; a < agents; a++ {
		a := a
		rule := Rule{Policy: cfg.Policy}
		env.GoDaemon(fmt.Sprintf("reconfig-agent%d", a), func(p *sim.Proc) {
			for {
				p.Sleep(DecideEvery)
				var load [2]float64
				var count [2]int
				for i, n := range nodes {
					if assign[i] < 0 {
						continue // failed out of the pool
					}
					load[assign[i]] += float64(n.RunQueueLen())
					count[assign[i]]++
				}
				from, to, ok := rule.Decide(p.Now(), load, count)
				if !ok {
					continue
				}
				// Serialize the move against other agents with a
				// one-sided CAS on the shared lock word.
				old, err := frontDev.CompareSwap(p, lockMR.Addr(), 0, 0, uint64(a+1))
				if err != nil {
					panic(err)
				}
				if old != 0 {
					res.CASConflicts++
					continue
				}
				if victim := LeastLoaded(nodes, assign, from); victim >= 0 {
					assign[victim] = to
					coldUntil[victim] = p.Now().Add(warmupPenalty)
					res.Reconfigs++
					rule.Moved(p.Now())
				}
				var zero [8]byte
				if err := frontDev.Write(p, lockMR.Addr(), 0, zero[:]); err != nil {
					panic(err)
				}
			}
		})
	}

	env.At(sim.Time(warmup), func() { measuring = true })
	if err := env.RunUntil(sim.Time(warmup + cfg.Measure)); err != nil {
		return res, err
	}
	res.TPS = float64(res.Requests) / cfg.Measure.Seconds()
	return res, nil
}
