// Package ngdc is a library-scale reproduction of "Designing Efficient
// Systems Services and Primitives for Next-Generation Data-Centers"
// (Vaidyanathan, Narravula, Balaji, Panda — IPDPS/NSF-NGS 2007): a
// three-layer framework for RDMA-enabled data-centers, built over a
// deterministic discrete-event simulation of an InfiniBand-class fabric.
//
// The facade re-exports the part of each layer that the programs in
// examples/, cmd/ and benchmark/ use; the rest is reached through a
// Framework's fields and methods or, inside this module, the owning
// internal package:
//
//	Layer 1 — communication protocols: Framework.Dial with
//	          SDP/ZSDP/AZ-SDP/P-SDP/TCP, and multicast groups.
//	Layer 2 — service primitives: the distributed data sharing substrate
//	          (Framework.Sharing, seven coherence models), the distributed
//	          lock manager (SRSL, DQNL, N-CoSED) and the memory pool.
//	Layer 3 — services: cooperative caching (AC/BCC/CCWR/MTACC/HYBCC),
//	          active resource monitoring (Socket-*/RDMA-*/e-RDMA-Sync),
//	          the remote-memory file cache, the integrated evaluation and
//	          the live serve surface on either runtime.
//
// Start with New (a wired Framework), spawn processes with Framework.Go,
// and drive virtual time with Framework.Run. See examples/ for complete
// programs and EXPERIMENTS.md for the paper-figure reproductions.
package ngdc

import (
	"ngdc/internal/cluster"
	"ngdc/internal/coopcache"
	"ngdc/internal/core"
	"ngdc/internal/ddss"
	"ngdc/internal/dlm"
	"ngdc/internal/filecache"
	"ngdc/internal/gma"
	"ngdc/internal/integrated"
	"ngdc/internal/monitor"
	"ngdc/internal/multicast"
	"ngdc/internal/runtime"
	"ngdc/internal/serve"
	"ngdc/internal/sim"
	"ngdc/internal/sockets"
	"ngdc/internal/verbs"
)

// Simulation engine.
type (
	// Env is the discrete-event simulation environment.
	Env = sim.Env
	// Proc is a simulated process.
	Proc = sim.Proc
)

// NewEnv creates a standalone simulation environment (most users want New
// instead, which wires a whole data-center).
func NewEnv() *Env { return runtime.ServiceOptions{}.NewEnv() }

// Node is one simulated machine.
type Node = cluster.Node

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

// Layer 1 — communication protocols.

// SocketScheme selects the wire protocol of a connection.
type SocketScheme = sockets.Scheme

// The SDP protocol family.
const (
	TCP   = sockets.TCP
	BSDP  = sockets.BSDP
	ZSDP  = sockets.ZSDP
	AZSDP = sockets.AZSDP
	PSDP  = sockets.PSDP
)

// Layer 2 — distributed data sharing substrate.

// Coherence selects a segment's coherence model.
type Coherence = ddss.Coherence

// The DDSS coherence models.
const (
	NullCoherence     = ddss.Null
	WriteCoherence    = ddss.Write
	ReadCoherence     = ddss.Read
	StrictCoherence   = ddss.Strict
	VersionCoherence  = ddss.Version
	DeltaCoherence    = ddss.Delta
	TemporalCoherence = ddss.Temporal
)

// Layer 2 — distributed lock manager.
type (
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

// LockCascade runs the Fig 5 cascading experiment.
func LockCascade(kind LockKind, mode LockMode, waiters int) (CascadeResult, error) {
	return dlm.Cascade(kind, mode, waiters, ServiceOptions{})
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

// Layer 2 — global memory aggregator.

// MemoryPool is the cluster-wide aggregate memory allocator.
type MemoryPool = gma.Aggregator

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

// Dual-mode runtime: the construction-time execution substrate every
// service is built against. A SimRuntime wraps a deterministic
// discrete-event environment; a RealRuntime runs tasks as goroutines on
// the wall clock with loopback TCP / unix-domain transport.
type (
	// Runtime is the execution substrate abstraction.
	Runtime = runtime.Runtime
	// Task is a unit of execution on either substrate.
	Task = runtime.Task
	// ServiceOptions is what a simulated run is opened with — trace
	// registry, fault plan and fabric calibration — embedded in every
	// experiment config.
	ServiceOptions = runtime.ServiceOptions
	// SimRuntime adapts a simulation environment to the Runtime API.
	SimRuntime = runtime.SimRuntime
	// RealRuntime runs tasks on goroutines over the wall clock.
	RealRuntime = runtime.RealRuntime
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
)

// NewServer builds a serve host on rt: framework-backed on a SimRuntime,
// an in-memory live backend on a RealRuntime.
func NewServer(rt Runtime, opts ServerOptions) *Server { return serve.New(rt, opts) }

// DialServe connects a serve client to a server listening at addr.
func DialServe(rt Runtime, addr string) (*ServeClient, error) { return serve.Dial(rt, addr) }
