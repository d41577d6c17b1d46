// Package multicast implements the framework's multicast primitive
// (Fig 1, advanced communication protocols layer): efficient one-to-many
// dissemination of small control messages (cache invalidations,
// reconfiguration notices, membership updates) over the verbs layer.
//
// Two dissemination strategies are provided:
//
//   - Serial: the root unicasts to every member in turn — O(n) serialized
//     sends at the root's NIC, the baseline a naive service uses.
//   - Binomial: a binomial-tree relay — every node that has the message
//     forwards it to the next subtree each round, so the fan-out
//     completes in ⌈log2 n⌉ latency steps and no single NIC sends more
//     than ⌈log2 n⌉ messages.
//
// Relay agents are daemon processes on each member node; delivery is
// into a per-node subscription channel.
package multicast

import (
	"encoding/binary"
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// Strategy selects the dissemination algorithm.
type Strategy int

// The dissemination strategies.
const (
	Serial Strategy = iota
	Binomial
)

func (s Strategy) String() string {
	if s == Serial {
		return "serial"
	}
	return "binomial"
}

// Group is a static multicast group over a set of member nodes; the
// member at rank 0 is the root (only the root may send).
type Group struct {
	name     string
	strategy Strategy
	env      *sim.Env
	devs     []*verbs.Device    // by rank
	rqs      []*verbs.RecvQueue // by rank: each member's frame queue
	rankOf   map[int]int        // node ID -> rank
	subs     []*sim.Chan[[]byte]

	// Delivered counts total deliveries, for instrumentation.
	Delivered int64
}

// header: rank(4) | seq(4); payload follows.
const hdrSize = 8

// Options configures a multicast group.
type Options struct {
	// Name labels the group's verbs service (default "group").
	Name string
	// Strategy selects the distribution tree (Serial or Binomial).
	Strategy Strategy
}

// NewGroup builds a group over the member nodes (rank order as given)
// and starts the relay agents, in the framework's canonical
// (nw, nodes, opts) constructor form.
func NewGroup(nw *verbs.Network, members []*cluster.Node, opts Options) *Group {
	if len(members) == 0 {
		panic("multicast: empty group")
	}
	if opts.Name == "" {
		opts.Name = "group"
	}
	g := &Group{
		name:     opts.Name,
		strategy: opts.Strategy,
		env:      members[0].Env(),
		rankOf:   map[int]int{},
	}
	for rank, n := range members {
		dev := nw.Attach(n)
		g.devs = append(g.devs, dev)
		g.rqs = append(g.rqs, dev.Bind("mcast:"+g.name))
		g.rankOf[n.ID] = rank
		g.subs = append(g.subs, sim.NewChan[[]byte](g.env, fmt.Sprintf("mcast/%s/%d", g.name, rank), 1024))
	}
	for rank := range g.devs {
		rank := rank
		g.env.GoDaemon(fmt.Sprintf("mcast/%s/agent%d", g.name, rank), func(p *sim.Proc) {
			g.agent(p, rank)
		})
	}
	return g
}

// Subscribe returns the delivery channel of a member node.
func (g *Group) Subscribe(nodeID int) *sim.Chan[[]byte] {
	rank, ok := g.rankOf[nodeID]
	if !ok {
		panic(fmt.Sprintf("multicast: node %d not in group %s", nodeID, g.name))
	}
	return g.subs[rank]
}

// agent relays and delivers incoming multicast frames at one member.
func (g *Group) agent(p *sim.Proc, rank int) {
	rq := g.rqs[rank]
	for {
		msg := rq.Recv(p)
		if len(msg.Data) < hdrSize {
			msg.Release()
			continue
		}
		payload := msg.Data[hdrSize:]
		if g.strategy == Binomial {
			// Forward to our subtree before local delivery: the
			// classic binomial dissemination.
			g.relay(p, rank, payload)
		}
		g.deliver(rank, payload)
		// payload aliases the pooled frame; relaying and delivery have
		// copied what they need.
		msg.Release()
	}
}

// relay forwards to the ranks this member owns in the binomial tree.
// A node of rank r received the message when the "filled prefix" reached
// it; it is responsible for ranks r + 2^k for each k with r + 2^k < n and
// 2^k > r's own highest set bit... The standard formulation: rank 0
// starts; in round k, every rank r < 2^k sends to r + 2^k. A member can
// compute its targets as r + 2^k for all 2^k > lsbValue(r), bounded by n.
func (g *Group) relay(p *sim.Proc, rank int, payload []byte) {
	n := len(g.devs)
	start := uint(0)
	if rank != 0 {
		// The first round in which we may send is the one after the
		// round that reached us: 2^k must exceed rank's highest power
		// component... For binomial dissemination, rank r (received in
		// round j where 2^j is r's highest set bit) sends to r + 2^k for
		// k > j.
		hb := highestBit(uint(rank))
		start = hb + 1
	}
	for k := start; ; k++ {
		target := rank + (1 << k)
		if target >= n {
			break
		}
		g.send(p, rank, target, payload)
	}
}

func highestBit(v uint) uint {
	var b uint
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

// send unicasts a frame from one rank to another, assembled directly in
// a pooled buffer the receiving agent releases.
func (g *Group) send(p *sim.Proc, from, to int, payload []byte) {
	dev := g.devs[from]
	frame := dev.GetBuf(hdrSize + len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(from))
	copy(frame[hdrSize:], payload)
	if err := dev.SendBuf(p, g.rqs[to], frame); err != nil {
		panic(err)
	}
}

func (g *Group) deliver(rank int, payload []byte) {
	buf := make([]byte, len(payload))
	copy(buf, payload)
	g.subs[rank].PostSend(buf)
	g.Delivered++
}

// Send disseminates payload from the root (rank 0) to every member,
// including local delivery at the root. The call returns once the root's
// own sends are on the wire; delivery completes asynchronously.
func (g *Group) Send(p *sim.Proc, payload []byte) {
	switch g.strategy {
	case Serial:
		for to := 1; to < len(g.devs); to++ {
			g.send(p, 0, to, payload)
		}
	case Binomial:
		g.relay(p, 0, payload)
	}
	g.deliver(0, payload)
}

// MeasureLatency builds a fresh group on its own environment, opened
// with o, and returns the time from Send until the last member
// delivered, for a group of n nodes — the primitive's figure of merit.
func MeasureLatency(strategy Strategy, n int, payload int, o runtime.ServiceOptions) (time.Duration, error) {
	env := o.NewEnv()
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, o.Fabric())
	var nodes []*cluster.Node
	for i := 0; i < n; i++ {
		nodes = append(nodes, cluster.NewNode(env, i, 2, 1<<20))
	}
	g := NewGroup(nw, nodes, Options{Name: "bench", Strategy: strategy})
	var last sim.Time
	for _, node := range nodes {
		sub := g.Subscribe(node.ID)
		env.GoDaemon(fmt.Sprintf("sink%d", node.ID), func(p *sim.Proc) {
			for {
				if _, ok := sub.Recv(p); !ok {
					return
				}
				if p.Now() > last {
					last = p.Now()
				}
			}
		})
	}
	env.Go("root", func(p *sim.Proc) {
		g.Send(p, make([]byte, payload))
	})
	if err := env.Run(); err != nil {
		return 0, err
	}
	return time.Duration(last), nil
}
