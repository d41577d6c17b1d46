// Package trace is the framework-wide observability layer: a per-run
// registry of counters that the hot layers publish into while a
// simulation executes.
//
//   - internal/verbs records per-device RDMA read/write/atomic/send ops,
//     bytes moved and operation latency summaries;
//   - internal/fabric records per-NIC transmit-engine occupancy and the
//     time processes stall waiting for the wire;
//   - internal/sockets records per-scheme flow-control stalls (credit,
//     pool and window waits) and zero-copy vs buffer-copy byte counts;
//   - internal/sim contributes the engine counters (events processed,
//     processes spawned, event-queue high-water mark) at snapshot time.
//
// A Registry is bound to a sim.Env through the environment's opaque
// meter slot (Env.SetMeter). Instrumented code caches the pointers it
// needs at construction time and nil-guards every record, so a run with
// no registry attached pays only a pointer comparison per operation and
// allocates nothing. A registry may be re-bound to successive
// environments (a sweep of runs); engine counters of earlier
// environments are folded into the snapshot.
//
// Snapshots (TraceStats) are plain values, their per-node records slices
// indexed by node ID: deterministic for a given seed, mergeable across
// runs, and renderable as JSONL counter records in index order.
// An optional sink additionally streams one JSONL event per verbs
// operation and per flow-control stall as the simulation executes.
package trace

import (
	"fmt"
	"io"
	"slices"
	"time"

	"ngdc/internal/metrics"
	"ngdc/internal/sim"
)

// OpClass classifies fabric-level operations for wire-time vs
// host-CPU-occupancy accounting.
type OpClass int

// The op classes, declared in the order of their JSONL names: the
// fabric records are written in class order.
const (
	// OpCopy is host memory-copy work (bounce-buffer SDP paths).
	OpCopy OpClass = iota
	// OpRDMAAtomic is a remote atomic (CAS or fetch-and-add).
	OpRDMAAtomic
	// OpRDMARead is a one-sided RDMA read (round trip, no remote CPU).
	OpRDMARead
	// OpRDMAWrite is a one-sided RDMA write.
	OpRDMAWrite
	// OpRegister is memory-registration (pinning) work.
	OpRegister
	// OpSend is a two-sided IB send/recv message.
	OpSend
	// OpTCP is a host-based TCP message (wire plus protocol CPU).
	OpTCP

	numOpClasses
)

// String returns the class's JSONL name.
func (c OpClass) String() string {
	switch c {
	case OpCopy:
		return "copy"
	case OpRDMAAtomic:
		return "rdma-atomic"
	case OpRDMARead:
		return "rdma-read"
	case OpRDMAWrite:
		return "rdma-write"
	case OpRegister:
		return "register"
	case OpSend:
		return "send"
	case OpTCP:
		return "tcp"
	default:
		return fmt.Sprintf("op(%d)", int(c))
	}
}

// OpTimes accumulates where one op class's time goes: on the wire (NIC
// serialization plus propagation) vs occupying a host CPU (protocol
// processing, copies, registration).
type OpTimes struct {
	Ops     int64
	Wire    time.Duration
	HostCPU time.Duration
}

func (t *OpTimes) merge(o OpTimes) {
	t.Ops += o.Ops
	t.Wire += o.Wire
	t.HostCPU += o.HostCPU
}

// VerbStats counts one verb class on one device.
type VerbStats struct {
	Ops   int64
	Bytes int64
	// Lat summarizes the issuing process's blocking time per op, in
	// microseconds (for Send: until local completion).
	Lat metrics.Summary
}

// Record adds one operation.
func (v *VerbStats) Record(bytes int, lat time.Duration) {
	v.Ops++
	v.Bytes += int64(bytes)
	v.Lat.AddDuration(lat)
}

func (v *VerbStats) merge(o VerbStats) {
	v.Ops += o.Ops
	v.Bytes += o.Bytes
	v.Lat.Merge(o.Lat)
}

// DeviceStats holds one device's verbs counters.
type DeviceStats struct {
	// Read/Write/Atomic are one-sided; Send covers two-sided messages
	// (the service queues).
	Read, Write, Atomic, Send VerbStats
}

func (d *DeviceStats) merge(o DeviceStats) {
	d.Read.merge(o.Read)
	d.Write.merge(o.Write)
	d.Atomic.merge(o.Atomic)
	d.Send.merge(o.Send)
}

// NICStats holds one NIC's transmit-engine accounting.
type NICStats struct {
	// TxOps counts transfers serialized through the transmit engine.
	TxOps int64
	// TxBusy is the cumulative serialization (wire occupancy) time.
	TxBusy time.Duration
	// TxStallCount and TxStall account time processes waited for the
	// transmit engine while it was occupied by other transfers.
	TxStallCount int64
	TxStall      time.Duration
}

// RecordTx adds one serialized transfer and its queueing delay.
func (n *NICStats) RecordTx(ser, wait time.Duration) {
	n.TxOps++
	n.TxBusy += ser
	if wait > 0 {
		n.TxStallCount++
		n.TxStall += wait
	}
}

func (n *NICStats) merge(o NICStats) {
	n.TxOps += o.TxOps
	n.TxBusy += o.TxBusy
	n.TxStallCount += o.TxStallCount
	n.TxStall += o.TxStall
}

// StallKind classifies sockets flow-control waits.
type StallKind int

// The stall kinds.
const (
	// StallCredits is a wait for a BSDP/P-SDP bounce-buffer credit.
	StallCredits StallKind = iota
	// StallPool is a wait for P-SDP byte-granular pool space.
	StallPool
	// StallWindow is a wait for an AZ-SDP in-flight window slot.
	StallWindow

	numStallKinds
)

// String returns the kind's JSONL name.
func (k StallKind) String() string {
	switch k {
	case StallCredits:
		return "credits"
	case StallPool:
		return "pool"
	case StallWindow:
		return "window"
	default:
		return fmt.Sprintf("stall(%d)", int(k))
	}
}

// StallStats counts one kind of flow-control stall.
type StallStats struct {
	Count int64
	Wait  time.Duration
}

// SchemeStats holds one socket scheme's counters.
type SchemeStats struct {
	Name string
	Msgs int64
	// ZeroCopyBytes moved by one-sided RDMA without host copies
	// (ZSDP/AZ-SDP payloads); BCopyBytes passed through bounce buffers
	// or the host TCP stack.
	ZeroCopyBytes int64
	BCopyBytes    int64
	Stalls        [numStallKinds]StallStats
}

func (s *SchemeStats) merge(o SchemeStats) {
	s.Msgs += o.Msgs
	s.ZeroCopyBytes += o.ZeroCopyBytes
	s.BCopyBytes += o.BCopyBytes
	for i := range s.Stalls {
		s.Stalls[i].Count += o.Stalls[i].Count
		s.Stalls[i].Wait += o.Stalls[i].Wait
	}
}

// EngineSnapshot aggregates the scheduler counters of every environment
// the registry observed.
type EngineSnapshot struct {
	// Envs counts environments the registry was bound to.
	Envs            int
	EventsProcessed uint64
	// Resumes counts control transfers into processes (see
	// sim.EngineStats.Resumes): the hand-offs events alone do not show.
	Resumes       uint64
	ProcsSpawned  uint64
	MaxEventQueue int
}

func (e *EngineSnapshot) merge(o EngineSnapshot) {
	e.Envs += o.Envs
	e.EventsProcessed += o.EventsProcessed
	e.Resumes += o.Resumes
	e.ProcsSpawned += o.ProcsSpawned
	if o.MaxEventQueue > e.MaxEventQueue {
		e.MaxEventQueue = o.MaxEventQueue
	}
}

// engineOf is the one-environment snapshot of st.
func engineOf(st sim.EngineStats) EngineSnapshot {
	return EngineSnapshot{Envs: 1, EventsProcessed: st.EventsProcessed, Resumes: st.Resumes,
		ProcsSpawned: st.ProcsSpawned, MaxEventQueue: st.MaxEventQueue}
}

// Registry accumulates one run's observability counters. All methods
// must be called under the simulation's lockstep discipline (from
// processes, timer callbacks, or between runs); the registry itself
// takes no locks, exactly like the model state it measures.
//
// Per-node counters live in slices indexed by node ID (nil where no
// node recorded) and schemes in a slice sorted by name, so every walk
// over the registry or a snapshot is already in output order.
type Registry struct {
	env     *sim.Env
	engine  EngineSnapshot
	devs    []*DeviceStats
	nics    []*NICStats
	fabric  [numOpClasses]OpTimes
	schemes []*SchemeStats
	sink    io.Writer
}

// NewRegistry creates an unbound registry; bind it to environments with
// AttachRegistry (or let core.New do it).
func NewRegistry() *Registry { return &Registry{} }

// Of returns the registry bound to env, or nil.
func Of(env *sim.Env) *Registry {
	r, _ := env.Meter().(*Registry)
	return r
}

// Attach returns env's registry, creating and binding a fresh one if
// absent. Call it before constructing the layers to be observed: devices
// and connections cache their counter pointers at construction time.
func Attach(env *sim.Env) *Registry {
	if r := Of(env); r != nil {
		return r
	}
	r := NewRegistry()
	AttachRegistry(env, r)
	return r
}

// AttachRegistry binds r to env. If r was bound to a different
// environment before (a sweep of sequential runs), that environment's
// engine counters are folded into the registry first.
func AttachRegistry(env *sim.Env, r *Registry) {
	if r == nil || r.env == env {
		return
	}
	if r.env != nil {
		r.engine.merge(engineOf(r.env.Stats()))
	}
	r.env = env
	env.SetMeter(r)
}

// Fold merges a snapshot's counters into the registry: each node's
// records into that node's, each scheme's into the scheme of that name.
// Merging one record touches no other, so folding the same snapshots in
// the same sequence always reproduces the same registry state
// bit-for-bit. It is the merge half of the parallel sweep runner: each
// sweep cell runs against its own registry and the runner folds the
// per-cell snapshots back into the caller's registry in cell-index order
// at the barrier, making the merged counters independent of worker
// scheduling.
func (r *Registry) Fold(s TraceStats) {
	r.engine.merge(s.Engine)
	for id, d := range s.Devices {
		r.Device(id).merge(d)
	}
	for id, n := range s.NICs {
		r.NIC(id).merge(n)
	}
	for c, t := range s.Fabric {
		r.fabric[c].merge(t)
	}
	for _, sc := range s.Schemes {
		r.Scheme(sc.Name).merge(sc)
	}
}

// SetSink installs w as the JSONL event sink: every verbs operation and
// flow-control stall is streamed as one JSON line while the simulation
// runs. A nil w disables streaming. Counter accumulation is unaffected.
func (r *Registry) SetSink(w io.Writer) { r.sink = w }

// Device returns (creating if needed) node's device counters.
func (r *Registry) Device(node int) *DeviceStats { return at(&r.devs, node) }

// NIC returns (creating if needed) node's transmit-engine counters.
func (r *Registry) NIC(node int) *NICStats { return at(&r.nics, node) }

// at returns the record at index i of *recs, growing the slice and
// allocating the record if needed.
func at[T any](recs *[]*T, i int) *T {
	for len(*recs) <= i {
		*recs = append(*recs, nil)
	}
	if (*recs)[i] == nil {
		(*recs)[i] = new(T)
	}
	return (*recs)[i]
}

// Scheme returns (creating if needed) the named socket scheme's
// counters, keeping the schemes sorted by name.
func (r *Registry) Scheme(name string) *SchemeStats {
	i := 0
	for i < len(r.schemes) && r.schemes[i].Name < name {
		i++
	}
	if i < len(r.schemes) && r.schemes[i].Name == name {
		return r.schemes[i]
	}
	sc := &SchemeStats{Name: name}
	r.schemes = slices.Insert(r.schemes, i, sc)
	return sc
}

// RecordOp accounts wire and host-CPU time against an op class.
//
// Scheduler-context guarantee: RecordOp, Emit and every per-object
// recorder handed out by this registry (DeviceStats, NICStats, ...) are
// plain counter updates with no process dependency, so the verbs
// event-chain datapath calls them from timer and grant callbacks — not
// just from processes. Implementations must stay free of blocking
// primitives for that to hold.
func (r *Registry) RecordOp(c OpClass, wire, cpu time.Duration) {
	t := &r.fabric[c]
	t.Ops++
	t.Wire += wire
	t.HostCPU += cpu
}

// now returns the bound environment's virtual time (0 when unbound).
func (r *Registry) now() sim.Time {
	if r.env == nil {
		return 0
	}
	return r.env.Now()
}

// Emit streams one JSONL event if a sink is attached. The fast path
// (no sink) is a nil comparison.
func (r *Registry) Emit(layer, event string, node, bytes int, d time.Duration) {
	if r.sink == nil {
		return
	}
	fmt.Fprintf(r.sink,
		"{\"at_us\":%.3f,\"layer\":%q,\"event\":%q,\"node\":%d,\"bytes\":%d,\"us\":%.3f}\n",
		float64(r.now())/1e3, layer, event, node, bytes,
		float64(d)/float64(time.Microsecond))
}
