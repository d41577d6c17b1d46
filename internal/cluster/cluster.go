// Package cluster models the machines of a simulated data-center: nodes
// with a fixed number of CPU cores scheduled FIFO (a run queue), kernel
// statistics structures that the monitoring service reads, a memory
// accounting pool, and helpers to apply background load.
//
// A node's kernel statistics are maintained twice: as ordinary Go fields
// (the model's ground truth) and as a 64-byte binary snapshot buffer that
// stands in for the kernel data structures the paper registers with the
// HCA so that a front-end can RDMA-read them without involving the remote
// CPU. The snapshot is re-serialized eagerly on every change, which mirrors
// the paper's design: the registered buffer is the live kernel structure,
// so a one-sided read always observes current values.
package cluster

import (
	"encoding/binary"
	"fmt"
	"time"

	"ngdc/internal/sim"
)

// StatsSize is the size in bytes of the serialized kernel statistics
// snapshot (the RDMA-registered region). Bytes 48–63 are unused; the
// region stays 64 B because that is what a monitor's one-sided read moves.
const StatsSize = 64

// Byte offsets of each field within the snapshot buffer.
const (
	offRunQueue    = 0
	offThreads     = 8
	offMemUsed     = 16
	offConnections = 24
	offCompleted   = 32
	offUpdatedAt   = 40
)

// KernelStats is the ground-truth resource usage of a node.
type KernelStats struct {
	// RunQueue is the number of tasks running or waiting for a core.
	RunQueue int
	// Threads is the number of live application threads; Fig 8a monitors
	// this value.
	Threads int
	// MemUsed is the bytes of allocated node memory.
	MemUsed int64
	// Connections is the number of open transport connections.
	Connections int
	// Completed counts finished CPU tasks.
	Completed int64
	// UpdatedAt is the virtual time of the last change.
	UpdatedAt sim.Time
}

// Node is one simulated machine.
type Node struct {
	ID    int
	Name  string
	env   *sim.Env
	cpu   *sim.Resource
	cores int

	stats    KernelStats
	snapshot [StatsSize]byte

	memCap  int64
	memUsed int64
}

// NewNode creates a node with the given core count and memory capacity in
// bytes.
func NewNode(env *sim.Env, id, cores int, memCap int64) *Node {
	if cores <= 0 {
		panic("cluster: node needs at least one core")
	}
	n := &Node{
		ID:     id,
		Name:   fmt.Sprintf("node%d", id),
		env:    env,
		cpu:    sim.NewResource(env, fmt.Sprintf("node%d/cpu", id), cores),
		cores:  cores,
		memCap: memCap,
	}
	n.publish()
	return n
}

// Env returns the simulation environment.
func (n *Node) Env() *sim.Env { return n.env }

// Cores returns the number of CPU cores.
func (n *Node) Cores() int { return n.cores }

// CPU exposes the core resource to event chains (see ExecBegin).
func (n *Node) CPU() *sim.Resource { return n.cpu }

// Stats returns a copy of the current ground-truth kernel statistics.
func (n *Node) Stats() KernelStats { return n.stats }

// Snapshot returns the live serialized kernel statistics buffer. Treat it
// as read-only; it is the region the verbs layer registers for one-sided
// reads.
func (n *Node) Snapshot() []byte { return n.snapshot[:] }

// publish re-serializes the statistics into the snapshot buffer.
func (n *Node) publish() {
	n.stats.UpdatedAt = n.env.Now()
	le := binary.LittleEndian
	le.PutUint64(n.snapshot[offRunQueue:], uint64(n.stats.RunQueue))
	le.PutUint64(n.snapshot[offThreads:], uint64(n.stats.Threads))
	le.PutUint64(n.snapshot[offMemUsed:], uint64(n.stats.MemUsed))
	le.PutUint64(n.snapshot[offConnections:], uint64(n.stats.Connections))
	le.PutUint64(n.snapshot[offCompleted:], uint64(n.stats.Completed))
	le.PutUint64(n.snapshot[offUpdatedAt:], uint64(n.stats.UpdatedAt))
}

// DecodeStats parses a serialized snapshot (e.g. one fetched with an RDMA
// read) back into KernelStats.
func DecodeStats(buf []byte) KernelStats {
	if len(buf) < StatsSize {
		return KernelStats{}
	}
	le := binary.LittleEndian
	return KernelStats{
		RunQueue:    int(le.Uint64(buf[offRunQueue:])),
		Threads:     int(le.Uint64(buf[offThreads:])),
		MemUsed:     int64(le.Uint64(buf[offMemUsed:])),
		Connections: int(le.Uint64(buf[offConnections:])),
		Completed:   int64(le.Uint64(buf[offCompleted:])),
		UpdatedAt:   sim.Time(le.Uint64(buf[offUpdatedAt:])),
	}
}

// Exec occupies one core for cpuTime of virtual time, modelling a CPU
// burst. The task waits FIFO behind earlier bursts when all cores are
// busy. The node run-queue statistic covers both waiting and running
// tasks.
func (n *Node) Exec(p *sim.Proc, cpuTime time.Duration) {
	n.ExecBegin()
	n.cpu.Use(p, 1, cpuTime)
	n.ExecDone()
}

// ExecBegin and ExecDone are the run-queue bookkeeping halves of Exec,
// exported so an event chain can run a burst at the instants Exec would
// have. The pairing is Exec's: ExecBegin, then CPU().HoldAsync(1,
// cpuTime, nil, done), and ExecDone first thing in done — the task is
// enqueued before the core is requested and retired at the instant the
// core is released.
func (n *Node) ExecBegin() {
	n.stats.RunQueue++
	n.publish()
}

// ExecDone retires a task begun with ExecBegin; see ExecBegin.
func (n *Node) ExecDone() {
	n.stats.RunQueue--
	n.stats.Completed++
	n.publish()
}

// ExecSliced runs total CPU time in quantum-sized bursts, approximating a
// time-slicing scheduler on top of the FIFO core queue: between slices
// other queued tasks get the core.
func (n *Node) ExecSliced(p *sim.Proc, total, quantum time.Duration) {
	if quantum <= 0 {
		quantum = time.Millisecond
	}
	for total > 0 {
		slice := quantum
		if total < quantum {
			slice = total
		}
		n.Exec(p, slice)
		total -= slice
	}
}

// ThreadStarted records a new application thread.
func (n *Node) ThreadStarted() {
	n.stats.Threads++
	n.publish()
}

// SetThreads force-sets the application thread count (used by oscillating
// workload drivers).
func (n *Node) SetThreads(v int) {
	n.stats.Threads = v
	n.publish()
}

// ConnOpened records an opened transport connection.
func (n *Node) ConnOpened() {
	n.stats.Connections++
	n.publish()
}

// MemFree returns the bytes available.
func (n *Node) MemFree() int64 { return n.memCap - n.memUsed }

// Alloc reserves size bytes of node memory, reporting whether it fit.
func (n *Node) Alloc(size int64) bool {
	if size < 0 || n.memUsed+size > n.memCap {
		return false
	}
	n.memUsed += size
	n.stats.MemUsed = n.memUsed
	n.publish()
	return true
}

// Free releases size bytes of node memory.
func (n *Node) Free(size int64) {
	if size < 0 || size > n.memUsed {
		panic("cluster: bad free size")
	}
	n.memUsed -= size
	n.stats.MemUsed = n.memUsed
	n.publish()
}

// RunQueueLen returns the current number of tasks running or queued.
func (n *Node) RunQueueLen() int { return n.stats.RunQueue }

// SpawnLoad starts conc background workers that each loop a CPU burst
// followed by think time, generating steady load on the node until the
// environment stops running.
func (n *Node) SpawnLoad(conc int, burst, think time.Duration) {
	for i := 0; i < conc; i++ {
		name := fmt.Sprintf("%s/load%d", n.Name, i)
		n.env.Go(name, func(p *sim.Proc) {
			n.ThreadStarted()
			for {
				n.Exec(p, burst)
				p.Sleep(think)
			}
		})
	}
}

// Cluster is a convenience collection of homogeneous nodes.
type Cluster struct {
	Env   *sim.Env
	Nodes []*Node
}

// New creates a cluster of n identical nodes.
func New(env *sim.Env, n, coresPer int, memCapPer int64) *Cluster {
	c := &Cluster{Env: env}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, NewNode(env, i, coresPer, memCapPer))
	}
	return c
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.Nodes) {
		return nil
	}
	return c.Nodes[id]
}
