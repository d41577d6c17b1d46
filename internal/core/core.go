// Package core assembles the paper's three-layer framework into one
// object: a simulated RDMA-capable data-center with
//
//	layer 1 — advanced communication protocols (sockets: SDP family),
//	layer 2 — service primitives (ddss: soft shared state, dlm: locks),
//	layer 3 — advanced services (coopcache, monitor, reconfig),
//
// all running over a shared cluster, fabric and virtual clock. It is the
// type a downstream user starts from: build a Framework, attach the
// primitives and services the application needs, spawn processes, run.
package core

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/ddss"
	"ngdc/internal/dlm"
	"ngdc/internal/fabric"
	"ngdc/internal/monitor"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/sockets"
	"ngdc/internal/trace"
	"ngdc/internal/verbs"
)

// Each machine of a framework: two cores and 64 MiB of memory.
const (
	coresPerNode = 2
	memPerNode   = 64 << 20
)

// Config sizes a framework instance.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// LockKind selects the distributed lock manager design.
	LockKind dlm.Kind
	// NumLocks sizes the lock namespace (0 means dlm.DefaultLocks).
	NumLocks int
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
}

// DefaultConfig returns a small data-center: 8 dual-core nodes with the
// paper's N-CoSED lock manager.
func DefaultConfig() Config {
	return Config{
		Nodes:    8,
		LockKind: dlm.NCoSED,
		Seed:     1,
	}
}

// Framework is a fully wired simulated data-center.
type Framework struct {
	Env     *sim.Env
	Network *verbs.Network
	Cluster *cluster.Cluster

	// Sharing is the distributed data sharing substrate (layer 2).
	Sharing *ddss.Substrate
	// Locks is the distributed lock manager (layer 2).
	Locks *dlm.Manager

	tr *trace.Registry
}

// New builds a framework from the configuration on a fresh simulation
// environment seeded with cfg.Seed.
func New(cfg Config) *Framework { return NewOn(runtime.ServiceOptions{}.NewEnv(cfg.Seed), cfg) }

// NewOn builds a framework on an existing environment — how a served
// simulation shares one virtual clock between the framework and the
// runtime's own tasks. The environment is already open, so cfg.Seed is
// unused.
func NewOn(env *sim.Env, cfg Config) *Framework {
	if cfg.Nodes <= 0 {
		panic("core: need at least one node")
	}
	// A framework always has a registry: a fresh one unless the
	// environment was opened with one.
	tr := trace.Attach(env)
	cl := cluster.New(env, cfg.Nodes, coresPerNode, memPerNode)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	for _, n := range cl.Nodes {
		nw.Attach(n)
	}
	return &Framework{
		Env:     env,
		Network: nw,
		Cluster: cl,
		Sharing: ddss.New(nw, cl.Nodes, ddss.Options{}),
		Locks:   dlm.New(nw, cl.Nodes, dlm.Options{Kind: cfg.LockKind, NumLocks: cfg.NumLocks}),
		tr:      tr,
	}
}

// Trace snapshots the framework's observability counters: per-device
// verbs ops, per-NIC occupancy, fabric wire-vs-CPU time per op class,
// socket flow-control stalls and the engine counters. Snapshots are
// deterministic for a given Config.Seed.
func (f *Framework) Trace() trace.TraceStats { return f.tr.Snapshot() }

// TraceRegistry exposes the framework's registry, e.g. to share it with
// standalone experiment runs whose results should merge into one view.
func (f *Framework) TraceRegistry() *trace.Registry { return f.tr }

// Node returns the node with the given ID.
func (f *Framework) Node(id int) *cluster.Node { return f.Cluster.Node(id) }

// Device returns a node's verbs device.
func (f *Framework) Device(id int) *verbs.Device { return f.Network.Device(id) }

// Dial opens a sockets connection between two nodes using the given SDP
// flavour (layer 1).
func (f *Framework) Dial(scheme sockets.Scheme, a, b int) (*sockets.Conn, *sockets.Conn) {
	da, db := f.Device(a), f.Device(b)
	if da == nil || db == nil {
		panic(fmt.Sprintf("core: dial between unknown nodes %d,%d", a, b))
	}
	return sockets.Dial(scheme, da, db)
}

// Monitor wires a resource-monitoring station (layer 3) on node front
// observing the target nodes. Call Start on the result before Run.
func (f *Framework) Monitor(scheme monitor.Scheme, front int, targets []int, interval time.Duration) *monitor.Station {
	var tn []*cluster.Node
	for _, id := range targets {
		n := f.Node(id)
		if n == nil {
			panic(fmt.Sprintf("core: monitor target %d unknown", id))
		}
		tn = append(tn, n)
	}
	return monitor.NewStation(scheme, f.Network, f.Node(front), tn, interval)
}

// Go spawns an application process.
func (f *Framework) Go(name string, fn func(p *sim.Proc)) { f.Env.Go(name, fn) }

// GoDaemon spawns a service process exempt from deadlock detection.
func (f *Framework) GoDaemon(name string, fn func(p *sim.Proc)) { f.Env.GoDaemon(name, fn) }

// Run drives the simulation to completion.
func (f *Framework) Run() error { return f.Env.Run() }

// Shutdown releases all process goroutines.
func (f *Framework) Shutdown() { f.Env.Shutdown() }
