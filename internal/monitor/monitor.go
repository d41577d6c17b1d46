// Package monitor implements the paper's active resource-monitoring
// service (§5.2, [Vaidyanathan et al., RAIT'06]) in five designs:
//
//   - Socket-Sync: the front-end sends a request over TCP; a monitoring
//     process on the back-end must be scheduled, parse kernel state and
//     reply. Under load the daemon queues behind application work, so
//     readings arrive late and stale.
//   - Socket-Async: the back-end daemon pushes readings on its own timer;
//     the front-end uses the last value received. Same CPU dependence
//     plus a full interval of staleness.
//   - RDMA-Sync: the kernel statistics structures are registered with the
//     HCA; the front-end RDMA-reads them on demand. No remote process, no
//     remote CPU: readings are current regardless of load.
//   - RDMA-Async: the front-end RDMA-polls on a timer and answers queries
//     from the local copy (staleness bounded by the interval, still no
//     remote CPU).
//   - e-RDMA-Sync: RDMA-Sync plus front-side accounting of requests
//     dispatched but not yet completed — the extended kernel information
//     of the paper — which removes the thundering-herd error between
//     samples when the readings drive a load balancer.
package monitor

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// Scheme is a monitoring design.
type Scheme int

// The five designs of Fig 8.
const (
	SocketSync Scheme = iota
	SocketAsync
	RDMASync
	RDMAAsync
	ERDMASync
)

func (s Scheme) String() string {
	switch s {
	case SocketSync:
		return "Socket-Sync"
	case SocketAsync:
		return "Socket-Async"
	case RDMASync:
		return "RDMA-Sync"
	case RDMAAsync:
		return "RDMA-Async"
	case ERDMASync:
		return "e-RDMA-Sync"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Schemes lists the designs in Fig 8's order.
var Schemes = []Scheme{SocketAsync, SocketSync, RDMAAsync, RDMASync, ERDMASync}

// GatherCPU is the CPU cost of the user-level monitoring daemon
// collecting kernel statistics (walking /proc); only the socket-based
// designs pay it.
const GatherCPU = 1500 * time.Microsecond

// CoarseInterval is the monitoring period the socket-based designs can
// afford: polling a server every CoarseInterval costs GatherCPU of its
// CPU, so going much finer would consume a whole core.
const CoarseInterval = 100 * time.Millisecond

// FineInterval is the period one-sided monitoring can afford: an RDMA
// read costs microseconds and no remote CPU, enabling the paper's
// millisecond-granularity monitoring.
const FineInterval = 2 * time.Millisecond

// RecommendedInterval returns the monitoring period a scheme can sustain.
func RecommendedInterval(s Scheme) time.Duration {
	if s.UsesRDMA() {
		return FineInterval
	}
	return CoarseInterval
}

// UsesRDMA reports whether the scheme reads kernel memory one-sidedly.
func (s Scheme) UsesRDMA() bool { return s >= RDMASync }

// Station is a front-end monitoring point observing a set of back-end
// targets under one scheme.
type Station struct {
	Scheme   Scheme
	Interval time.Duration

	env   *sim.Env
	nw    *verbs.Network
	front *verbs.Device
	tgts  []*target
}

type target struct {
	node *cluster.Node
	dev  *verbs.Device
	mr   *verbs.MR // the registered kernel statistics region

	// last is the front-end's current belief about this target.
	last   cluster.KernelStats
	lastAt sim.Time
	// down marks a target whose one-sided reads fail (node crashed or
	// partitioned away); a succeeding read clears it.
	down bool
}

// NewStation wires a station on front observing targets. Call Start from
// outside the run (before Env.Run) to launch the per-scheme daemons.
func NewStation(scheme Scheme, nw *verbs.Network, front *cluster.Node, targets []*cluster.Node, interval time.Duration) *Station {
	st := &Station{
		Scheme:   scheme,
		Interval: interval,
		env:      front.Env(),
		nw:       nw,
		front:    nw.Attach(front),
	}
	for _, tn := range targets {
		dev := nw.Attach(tn)
		st.tgts = append(st.tgts, &target{
			node: tn,
			dev:  dev,
			mr:   dev.RegisterAtSetup(tn.Snapshot()),
		})
	}
	return st
}

// Start launches the scheme's background machinery: socket daemons on the
// targets, push/poll loops, etc.
func (s *Station) Start() {
	switch s.Scheme {
	case SocketSync:
		for i, t := range s.tgts {
			t, i := t, i
			// Replies flow on a per-target queue so concurrent pollers
			// never consume each other's readings.
			reqQ, repQ := t.dev.Bind("mon-req"), s.front.Bind(fmt.Sprintf("mon-rep-%d", i))
			// Back-end daemon answering monitoring requests.
			s.env.GoDaemon(fmt.Sprintf("mon-daemon/%s", t.node.Name), func(p *sim.Proc) {
				for {
					reqQ.RecvTCP(p)
					t.node.Exec(p, GatherCPU)
					snap := make([]byte, cluster.StatsSize)
					copy(snap, t.node.Snapshot())
					if err := t.dev.SendTCP(p, repQ, snap); err != nil {
						return
					}
				}
			})
			// Front-end poller: one request per tick, ticks staggered
			// across targets so updates do not arrive in lockstep. A
			// delayed reply does not stretch the schedule.
			s.env.GoDaemon(fmt.Sprintf("mon-poll/%d", i), func(p *sim.Proc) {
				offset := s.Interval / time.Duration(len(s.tgts)+1) * time.Duration(i)
				for tick := 0; ; tick++ {
					p.SleepUntil(sim.Time(offset + time.Duration(tick)*s.Interval))
					if err := s.front.SendTCP(p, reqQ, []byte{byte(i)}); err != nil {
						return
					}
					rep := repQ.RecvTCP(p)
					t.last = cluster.DecodeStats(rep.Data)
					t.lastAt = p.Now()
				}
			})
		}
	case SocketAsync:
		pushQ := s.front.Bind("mon-push")
		for i, t := range s.tgts {
			t, i := t, i
			// Back-end daemon pushing readings on its own timer,
			// staggered across targets.
			s.env.GoDaemon(fmt.Sprintf("mon-push/%s", t.node.Name), func(p *sim.Proc) {
				p.Sleep(s.Interval / time.Duration(len(s.tgts)+1) * time.Duration(i))
				for {
					t.node.Exec(p, GatherCPU)
					snap := make([]byte, cluster.StatsSize)
					copy(snap, t.node.Snapshot())
					if err := t.dev.SendTCP(p, pushQ, snap); err != nil {
						return
					}
					p.Sleep(s.Interval)
				}
			})
		}
		// Front-end sink.
		s.env.GoDaemon("mon-sink", func(p *sim.Proc) {
			for {
				msg := pushQ.RecvTCP(p)
				for _, t := range s.tgts {
					if t.dev.Node.ID == msg.From {
						t.last = cluster.DecodeStats(msg.Data)
						t.lastAt = p.Now()
					}
				}
			}
		})
	case RDMAAsync:
		// Front-end RDMA poller; queries answered from the local copy.
		for i, t := range s.tgts {
			t, i := t, i
			s.env.GoDaemon(fmt.Sprintf("mon-rdma-poll/%d", i), func(p *sim.Proc) {
				p.Sleep(s.Interval / time.Duration(len(s.tgts)+1) * time.Duration(i))
				buf := make([]byte, cluster.StatsSize)
				for {
					if err := s.front.Read(p, buf, t.mr.Addr(), 0); err != nil {
						// The target is unreachable: suspect it down and keep
						// polling — readings resume when the node comes back.
						t.down = true
						p.Sleep(s.Interval)
						continue
					}
					t.down = false
					t.last = cluster.DecodeStats(buf)
					t.lastAt = p.Now()
					p.Sleep(s.Interval)
				}
			})
		}
	case RDMASync, ERDMASync:
		// Purely on-demand: nothing to start.
	}
}

// Sample returns the station's current belief about target i's kernel
// statistics. For the synchronous RDMA schemes this performs a one-sided
// read now; for the others it returns the latest value the background
// machinery produced.
func (s *Station) Sample(p *sim.Proc, i int) cluster.KernelStats {
	t := s.tgts[i]
	switch s.Scheme {
	case RDMASync, ERDMASync:
		// The buffer comes from the front end's pool; a read samples
		// target memory before the process wakes, so each concurrent
		// Sample holds its own.
		buf := s.front.GetBuf(cluster.StatsSize)
		defer s.front.PutBuf(buf)
		if err := s.front.Read(p, buf, t.mr.Addr(), 0); err != nil {
			t.down = true
			return t.last
		}
		t.down = false
		t.last = cluster.DecodeStats(buf)
		t.lastAt = p.Now()
		return t.last
	default:
		return t.last
	}
}

// Staleness returns the age of the station's belief about target i.
func (s *Station) Staleness(i int) time.Duration {
	return time.Duration(s.env.Now() - s.tgts[i].lastAt)
}

// Down reports whether the station currently suspects target i's node of
// having failed. Only the RDMA schemes detect failures: their one-sided
// reads error when the target is crashed or partitioned away (for the
// async poller, within one interval), and a later succeeding read clears
// the suspicion. The socket schemes simply stop hearing from the node.
func (s *Station) Down(i int) bool { return s.tgts[i].down }
