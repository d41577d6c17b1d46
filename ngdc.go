// Package ngdc is a library-scale reproduction of "Designing Efficient
// Systems Services and Primitives for Next-Generation Data-Centers"
// (Vaidyanathan, Narravula, Balaji, Panda — IPDPS/NSF-NGS 2007): a
// three-layer framework for RDMA-enabled data-centers, built over a
// deterministic discrete-event simulation of an InfiniBand-class fabric.
//
// The public API re-exports the framework's layers:
//
//	Layer 1 — communication protocols: Dial with SDP/ZSDP/AZ-SDP/P-SDP/TCP.
//	Layer 2 — service primitives: the distributed data sharing substrate
//	          (Substrate/Handle, seven coherence models) and the
//	          distributed lock manager (SRSL, DQNL, N-CoSED).
//	Layer 3 — services: cooperative caching (AC/BCC/CCWR/MTACC/HYBCC),
//	          active resource monitoring (Socket-*/RDMA-*/e-RDMA-Sync) and
//	          history-aware dynamic reconfiguration.
//
// Start with New (a wired Framework), spawn processes with Framework.Go,
// and drive virtual time with Framework.Run. See examples/ for complete
// programs and EXPERIMENTS.md for the paper-figure reproductions.
package ngdc

import (
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/coopcache"
	"ngdc/internal/core"
	"ngdc/internal/ddss"
	"ngdc/internal/dlm"
	"ngdc/internal/dyncache"
	"ngdc/internal/fabric"
	"ngdc/internal/filecache"
	"ngdc/internal/gma"
	"ngdc/internal/integrated"
	"ngdc/internal/monitor"
	"ngdc/internal/multicast"
	"ngdc/internal/qos"
	"ngdc/internal/reconfig"
	"ngdc/internal/runtime"
	"ngdc/internal/serve"
	"ngdc/internal/sim"
	"ngdc/internal/sockets"
	"ngdc/internal/storm"
	"ngdc/internal/trace"
	"ngdc/internal/verbs"
	"ngdc/internal/workload"
)

// Simulation engine.
type (
	// Env is the discrete-event simulation environment.
	Env = sim.Env
	// Proc is a simulated process.
	Proc = sim.Proc
	// Time is a point in virtual time (nanoseconds since start).
	Time = sim.Time
	// Resource is a FIFO counting semaphore over virtual time.
	Resource = sim.Resource
)

// NewEnv creates a standalone simulation environment (most users want New
// instead, which wires a whole data-center).
func NewEnv(seed int64) *Env { return sim.NewEnv(seed) }

// Cluster and fabric.
type (
	// Node is one simulated machine.
	Node = cluster.Node
	// KernelStats is a node's ground-truth resource usage.
	KernelStats = cluster.KernelStats
	// FabricParams is the interconnect cost model.
	FabricParams = fabric.Params
	// Device is a node's RDMA-capable network adapter.
	Device = verbs.Device
	// MR is a registered memory region.
	MR = verbs.MR
	// RemoteAddr names a registered region on some node.
	RemoteAddr = verbs.RemoteAddr
)

// DefaultFabricParams returns the 2007-calibrated cost model.
func DefaultFabricParams() FabricParams { return fabric.DefaultParams() }

// The framework (core).
type (
	// Framework is a fully wired simulated data-center.
	Framework = core.Framework
	// Config sizes a Framework.
	Config = core.Config
)

// New builds a wired data-center framework.
func New(cfg Config) *Framework { return core.New(cfg) }

// DefaultConfig returns an 8-node framework configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// Observability.
type (
	// TraceStats is a point-in-time snapshot of every layer's counters:
	// per-device verbs ops, per-NIC transmit occupancy, fabric
	// wire-vs-host-CPU time per op class, socket flow-control stalls and
	// the simulation-engine totals. Obtain one from Framework.Trace or
	// TraceRegistry.Snapshot.
	TraceStats = trace.TraceStats
	// TraceRegistry collects trace counters for one or more simulation
	// environments; attach it before building layers on an Env.
	TraceRegistry = trace.Registry
)

// NewTraceRegistry creates an unattached registry, for standalone-Env
// and experiment-sweep use (a Framework carries its own).
func NewTraceRegistry() *TraceRegistry { return trace.NewRegistry() }

// AttachTrace binds a registry to an environment so layers built on it
// afterwards publish counters; re-attaching across sequential
// environments accumulates engine totals into one view.
func AttachTrace(env *Env, r *TraceRegistry) { trace.AttachRegistry(env, r) }

// Layer 1 — communication protocols.
type (
	// Conn is a message-oriented connection endpoint.
	Conn = sockets.Conn
	// SocketScheme selects the wire protocol of a connection.
	SocketScheme = sockets.Scheme
	// SocketOptions tunes connection flow control.
	SocketOptions = sockets.Options
)

// The SDP protocol family.
const (
	TCP   = sockets.TCP
	BSDP  = sockets.BSDP
	ZSDP  = sockets.ZSDP
	AZSDP = sockets.AZSDP
	PSDP  = sockets.PSDP
)

// DefaultSocketOptions mirrors common SDP deployments.
func DefaultSocketOptions() SocketOptions { return sockets.DefaultOptions() }

// DialNodes opens a connection between two devices with a scheme.
func DialNodes(scheme SocketScheme, a, b *Device, opt SocketOptions) (*Conn, *Conn) {
	return sockets.Dial(scheme, a, b, opt)
}

// Layer 2 — distributed data sharing substrate.
type (
	// Substrate is the cluster-wide soft shared state service.
	Substrate = ddss.Substrate
	// SharingClient is a node-local substrate access point.
	SharingClient = ddss.Client
	// Handle is an open reference to a shared segment.
	Handle = ddss.Handle
	// Coherence selects a segment's coherence model.
	Coherence = ddss.Coherence
)

// The DDSS coherence models.
const (
	NullCoherence     = ddss.Null
	WriteCoherence    = ddss.Write
	ReadCoherence     = ddss.Read
	StrictCoherence   = ddss.Strict
	VersionCoherence  = ddss.Version
	DeltaCoherence    = ddss.Delta
	TemporalCoherence = ddss.Temporal
	// NodeAuto lets the placement policy pick a segment's home node.
	NodeAuto = ddss.NodeAuto
)

// Layer 2 — distributed lock manager.
type (
	// LockManager is a cluster-wide lock service.
	LockManager = dlm.Manager
	// LockClient is a node's handle to the lock service.
	LockClient = dlm.Client
	// LockMode is shared or exclusive.
	LockMode = dlm.Mode
	// LockKind selects the lock-manager design.
	LockKind = dlm.Kind
	// CascadeResult is a Fig 5 lock-cascading measurement.
	CascadeResult = dlm.CascadeResult
)

// Lock modes and designs.
const (
	SharedLock    = dlm.Shared
	ExclusiveLock = dlm.Exclusive
	SRSL          = dlm.SRSL
	DQNL          = dlm.DQNL
	NCoSED        = dlm.NCoSED
)

// LockOptions configures a standalone lock manager.
type LockOptions = dlm.Options

// NewLocks builds a standalone lock manager over nodes attached to a
// verbs network (Framework users get one wired already).
func NewLocks(nw *verbs.Network, nodes []*Node, opts LockOptions) *LockManager {
	return dlm.New(nw, nodes, opts)
}

// LockCascade runs the Fig 5 cascading experiment.
func LockCascade(kind LockKind, mode LockMode, waiters int, seed int64) (CascadeResult, error) {
	return dlm.Cascade(kind, mode, waiters, seed, ServiceOptions{})
}

// Layer 3 — cooperative caching.
type (
	// CacheScheme selects the cooperative-caching configuration.
	CacheScheme = coopcache.Scheme
	// CacheConfig describes one caching experiment.
	CacheConfig = coopcache.Config
	// CacheStats is the outcome of a caching run.
	CacheStats = coopcache.Stats
)

// The cooperative-caching schemes of Fig 6.
const (
	AC    = coopcache.AC
	BCC   = coopcache.BCC
	CCWR  = coopcache.CCWR
	MTACC = coopcache.MTACC
	HYBCC = coopcache.HYBCC
)

// RunCache executes one cooperative-caching experiment.
func RunCache(cfg CacheConfig) (CacheStats, error) { return coopcache.Run(cfg) }

// DefaultCacheConfig returns a Fig 6-shaped experiment.
func DefaultCacheConfig(scheme CacheScheme, proxies int, fileSize int64) CacheConfig {
	return coopcache.DefaultConfig(scheme, proxies, fileSize)
}

// Layer 3 — resource monitoring.
type (
	// MonitorScheme selects a monitoring design.
	MonitorScheme = monitor.Scheme
	// Station is a front-end monitoring point.
	Station = monitor.Station
	// AccuracyConfig / AccuracyResult drive the Fig 8a experiment.
	AccuracyConfig = monitor.AccuracyConfig
	// AccuracyResult is the outcome of the Fig 8a experiment.
	AccuracyResult = monitor.AccuracyResult
	// LBConfig / LBStats drive the Fig 8b experiment.
	LBConfig = monitor.LBConfig
	// LBStats is the outcome of one Fig 8b run.
	LBStats = monitor.LBStats
)

// The monitoring designs of Fig 8.
const (
	SocketSync  = monitor.SocketSync
	SocketAsync = monitor.SocketAsync
	RDMASync    = monitor.RDMASync
	RDMAAsync   = monitor.RDMAAsync
	ERDMASync   = monitor.ERDMASync
)

// MonitorAccuracy runs the Fig 8a experiment.
func MonitorAccuracy(cfg AccuracyConfig) (AccuracyResult, error) { return monitor.Accuracy(cfg) }

// DefaultAccuracyConfig mirrors the paper's Fig 8a setup.
func DefaultAccuracyConfig(scheme MonitorScheme) AccuracyConfig {
	return monitor.DefaultAccuracyConfig(scheme)
}

// RunLoadBalancer runs the Fig 8b experiment.
func RunLoadBalancer(cfg LBConfig) (LBStats, error) { return monitor.RunLB(cfg) }

// DefaultLBConfig mirrors the paper's Fig 8b setup.
func DefaultLBConfig(scheme MonitorScheme, alpha float64) LBConfig {
	return monitor.DefaultLBConfig(scheme, alpha)
}

// Layer 3 — dynamic reconfiguration.
type (
	// ReconfigPolicy selects the reconfiguration decision rule.
	ReconfigPolicy = reconfig.Policy
	// ReconfigConfig describes one reconfiguration experiment.
	ReconfigConfig = reconfig.Config
	// ReconfigResult is the outcome of a reconfiguration run.
	ReconfigResult = reconfig.Result
)

// The reconfiguration policies.
const (
	NaiveReconfig        = reconfig.Naive
	HistoryAwareReconfig = reconfig.HistoryAware
)

// RunReconfig executes one reconfiguration experiment.
func RunReconfig(cfg ReconfigConfig) (ReconfigResult, error) { return reconfig.Run(cfg) }

// DefaultReconfigConfig returns the E11 ablation shape.
func DefaultReconfigConfig(policy ReconfigPolicy) ReconfigConfig {
	return reconfig.DefaultConfig(policy)
}

// STORM query processing (Fig 3b).
type (
	// StormTransport selects STORM's data-exchange substrate.
	StormTransport = storm.Transport
	// StormCluster is one STORM deployment.
	StormCluster = storm.Cluster
	// StormSelector is a selection predicate.
	StormSelector = storm.Selector
	// StormResult is a query outcome.
	StormResult = storm.Result
)

// STORM configurations.
const (
	StormOverTCP  = storm.OverTCP
	StormOverDDSS = storm.OverDDSS
)

// StormOptions configures a STORM deployment.
type StormOptions = storm.Options

// NewStormCluster builds a STORM deployment on an existing verbs
// network; nodes are the data nodes and opts.Client issues queries.
func NewStormCluster(nw *verbs.Network, dataNodes []*Node, opts StormOptions) *StormCluster {
	return storm.New(nw, dataNodes, opts)
}

// Workloads.
type (
	// Zipf samples document ranks with configurable skew.
	Zipf = workload.Zipf
	// RequestClass is one kind of request in a service mix.
	RequestClass = workload.RequestClass
	// Mix is a weighted request-class distribution.
	Mix = workload.Mix
)

// RUBiSClasses returns the RUBiS-like auction mix.
func RUBiSClasses() []RequestClass { return workload.RUBiSClasses() }

// Extension subsystems: the remaining framework boxes of Fig 1 and the
// §6 work-in-progress directions.

// Layer 3 — active caching of dynamic content (strong coherence).
type (
	// DynCacheScheme selects the dynamic-content coherence mechanism.
	DynCacheScheme = dyncache.Scheme
	// DynCacheConfig describes one dynamic-caching experiment.
	DynCacheConfig = dyncache.Config
	// DynCacheStats is the outcome of a dynamic-caching run.
	DynCacheStats = dyncache.Stats
)

// The dynamic-content coherence schemes.
const (
	DynNoCache   = dyncache.NoCache
	DynTTLCache  = dyncache.TTLCache
	DynRDMACheck = dyncache.RDMACheck
)

// RunDynCache executes one dynamic-content caching experiment.
func RunDynCache(cfg DynCacheConfig) (DynCacheStats, error) { return dyncache.Run(cfg) }

// DefaultDynCacheConfig returns the two-tier dynamic-caching setup.
func DefaultDynCacheConfig(scheme DynCacheScheme) DynCacheConfig {
	return dyncache.DefaultConfig(scheme)
}

// Layer 3 — QoS / admission control.
type (
	// QoSPolicy selects the admission behaviour.
	QoSPolicy = qos.Policy
	// QoSConfig describes one overload experiment.
	QoSConfig = qos.Config
	// QoSStats is the outcome of a QoS run.
	QoSStats = qos.Stats
)

// The admission policies.
const (
	NoAdmissionControl = qos.NoControl
	PriorityAdmission  = qos.PriorityAdmission
)

// RunQoS executes one overload/admission experiment.
func RunQoS(cfg QoSConfig) (QoSStats, error) { return qos.Run(cfg) }

// DefaultQoSConfig returns a 2x-overloaded two-class deployment.
func DefaultQoSConfig(policy QoSPolicy) QoSConfig { return qos.DefaultConfig(policy) }

// Layer 2 — global memory aggregator.
type (
	// MemoryPool is the cluster-wide aggregate memory allocator.
	MemoryPool = gma.Aggregator
	// PoolClient is a node-local handle to the pool.
	PoolClient = gma.Client
	// PoolBuf is an allocated region of aggregate memory.
	PoolBuf = gma.Buf
)

// PoolOptions configures a memory pool.
type PoolOptions = gma.Options

// NewPool aggregates opts.ArenaPerNode bytes from every node into one
// allocatable cluster-wide memory space.
func NewPool(nw *verbs.Network, nodes []*Node, opts PoolOptions) (*MemoryPool, error) {
	return gma.New(nw, nodes, opts)
}

// Layer 1 — multicast.
type (
	// MulticastGroup is a static dissemination group.
	MulticastGroup = multicast.Group
	// MulticastStrategy selects the dissemination algorithm.
	MulticastStrategy = multicast.Strategy
)

// The dissemination strategies.
const (
	SerialMulticast   = multicast.Serial
	BinomialMulticast = multicast.Binomial
)

// MulticastOptions configures a multicast group.
type MulticastOptions = multicast.Options

// NewMulticast builds a group over the member nodes; members[0] is the
// root.
func NewMulticast(nw *verbs.Network, members []*Node, opts MulticastOptions) *MulticastGroup {
	return multicast.NewGroup(nw, members, opts)
}

// MulticastLatency measures dissemination latency for a group size.
func MulticastLatency(strategy MulticastStrategy, n, payload int, seed int64) (time.Duration, error) {
	return multicast.MeasureLatency(strategy, n, payload, seed, ServiceOptions{})
}

// §6 — remote-memory file-system cache.
type (
	// FileCache is a node's buffer cache with a remote-memory victim tier.
	FileCache = filecache.Cache
	// FileCacheMode selects the miss path.
	FileCacheMode = filecache.Mode
	// FileCacheConfig sizes a cache.
	FileCacheConfig = filecache.Config
)

// The file-cache modes.
const (
	FileCacheDiskOnly     = filecache.DiskOnly
	FileCacheRemoteMemory = filecache.RemoteMemory
)

// NewFileCache builds a cache on node backed by the given pool.
func NewFileCache(cfg FileCacheConfig, nw *verbs.Network, node *Node, pool *MemoryPool) *FileCache {
	return filecache.New(cfg, nw, node, pool)
}

// DefaultFileCacheConfig returns a small experimental cache.
func DefaultFileCacheConfig(mode FileCacheMode) FileCacheConfig {
	return filecache.DefaultConfig(mode)
}

// §6 — integrated evaluation.
type (
	// IntegratedStack selects the full-stack configuration.
	IntegratedStack = integrated.Stack
	// IntegratedConfig describes one integrated run.
	IntegratedConfig = integrated.Config
	// IntegratedStats is the outcome of an integrated run.
	IntegratedStats = integrated.Stats
)

// The compared stacks.
const (
	TraditionalStack = integrated.Traditional
	RDMAFramework    = integrated.RDMAStack
)

// RunIntegrated executes the §6 integrated evaluation.
func RunIntegrated(cfg IntegratedConfig) (IntegratedStats, error) { return integrated.Run(cfg) }

// DefaultIntegratedConfig returns the integrated-evaluation shape.
func DefaultIntegratedConfig(stack IntegratedStack) IntegratedConfig {
	return integrated.DefaultConfig(stack)
}

// Listener support (the paper's pseudo-sockets interface).
type (
	// Listener accepts incoming connections on a (node, port) address.
	Listener = sockets.Listener
)

// Listen starts accepting connections of a scheme on a node's port.
func Listen(dev *Device, port int, scheme SocketScheme, opt SocketOptions) (*Listener, error) {
	return sockets.Listen(dev, port, scheme, opt)
}

// DialConn connects to a listener at (peer, port).
func DialConn(p *Proc, dev, peer *Device, port int) (*Conn, error) {
	return sockets.DialTo(p, dev, peer, port)
}

// IWARPFabricParams returns the alternate 10GigE/iWARP calibration.
func IWARPFabricParams() FabricParams { return fabric.IWARPParams() }

// Dual-mode runtime: the construction-time execution substrate every
// service is built against. A SimRuntime wraps a deterministic
// discrete-event environment; a RealRuntime runs tasks as goroutines on
// the wall clock with loopback TCP / unix-domain transport.
type (
	// Runtime is the execution substrate abstraction.
	Runtime = runtime.Runtime
	// RuntimeMode tells the two substrates apart.
	RuntimeMode = runtime.Mode
	// Task is a unit of execution on either substrate.
	Task = runtime.Task
	// ServiceOptions is what a simulated run is opened with — trace
	// registry, fault plan and fabric calibration — embedded in every
	// experiment config and named Service in Config.
	ServiceOptions = runtime.ServiceOptions
	// SimRuntime adapts a simulation environment to the Runtime API.
	SimRuntime = runtime.SimRuntime
	// RealRuntime runs tasks on goroutines over the wall clock.
	RealRuntime = runtime.RealRuntime
)

// The two runtime modes.
const (
	SimMode  = runtime.SimMode
	RealMode = runtime.RealMode
)

// NewSimRuntime adapts an existing simulation environment.
func NewSimRuntime(env *Env) *SimRuntime { return runtime.NewSim(env) }

// NewRealRuntime creates a wall-clock runtime for live serving.
func NewRealRuntime() *RealRuntime { return runtime.NewReal() }

// Live serving: the ngdc-serve request surface (echo, KV put/get over
// the sharing substrate, shared/exclusive locks over the lock manager),
// hostable on either runtime with identical semantics.
type (
	// Server hosts the serve protocol on a Runtime.
	Server = serve.Server
	// ServerOptions sizes a Server.
	ServerOptions = serve.Options
	// ServeClient speaks the serve wire protocol.
	ServeClient = serve.Client
	// LoadStats summarizes a live load-generation run.
	LoadStats = serve.LoadStats
)

// NewServer builds a serve host on rt: framework-backed in SimMode,
// in-memory live backend in RealMode.
func NewServer(rt Runtime, opts ServerOptions) *Server { return serve.New(rt, opts) }

// DialServe connects a serve client to a server listening at addr.
func DialServe(rt Runtime, addr string) (*ServeClient, error) { return serve.Dial(rt, addr) }

// RunServeLoad drives clients concurrent ping-pong connections of mixed
// load against a live server for roughly dur, returning aggregate stats.
func RunServeLoad(rt *RealRuntime, addr string, clients int, dur time.Duration) (LoadStats, error) {
	return serve.RunLoad(rt, addr, clients, 1, dur)
}
