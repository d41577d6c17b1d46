// Package coopcache implements the paper's cooperative caching service
// (§5.1, [Narravula et al., CCGrid'06]) over the simulated multi-tier
// data-center, in the five configurations of Fig 6:
//
//   - AC    — plain per-proxy (Apache) caching: every proxy caches
//     independently; a miss goes to the backend.
//   - BCC   — Basic RDMA-based Cooperative Cache: proxies share their
//     caches through a distributed directory; remote hits are fetched with
//     one-sided RDMA reads and also cached locally, so popular documents
//     get duplicated across proxies.
//   - CCWR  — Cooperative Cache Without Redundancy: as BCC, but a document
//     has at most one cached copy cluster-wide; remote hits are served
//     directly from the holder without local duplication, so the aggregate
//     capacity is the sum of all proxy caches.
//   - MTACC — Multi-Tier Aggregate Cooperative Cache: CCWR plus the memory
//     of additional (application-server) tiers joined into the cache pool.
//   - HYBCC — Hybrid: the MTACC pool and placement, plus BCC-style local
//     duplication for small documents that have proven hot at this proxy
//     (replicating a small hot file is cheap and converts its many remote
//     hits into local ones; everything else stays single-copy to preserve
//     aggregate capacity).
//
// Document lookup uses a home-hashed distributed directory whose entries
// are read and updated with one-sided verbs operations, so directory
// traffic also rides the RDMA cost model.
package coopcache

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/lru"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
	"ngdc/internal/verbs"
)

// Scheme selects the cooperative-caching configuration.
type Scheme int

// The five configurations of Fig 6.
const (
	AC Scheme = iota
	BCC
	CCWR
	MTACC
	HYBCC
)

func (s Scheme) String() string {
	switch s {
	case AC:
		return "AC"
	case BCC:
		return "BCC"
	case CCWR:
		return "CCWR"
	case MTACC:
		return "MTACC"
	case HYBCC:
		return "HYBCC"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Schemes lists all configurations in Fig 6's order.
var Schemes = []Scheme{AC, BCC, CCWR, MTACC, HYBCC}

// The Fig 6 testbed: the proxies in front of two application servers,
// each node caching in memory of its own.
const (
	appServers = 2
	// proxyMem and appServerMem are per-node cache capacities in bytes.
	proxyMem     = 8 << 20
	appServerMem = 8 << 20
	// zipfAlpha shapes document popularity.
	zipfAlpha = 0.9
	// clientsPerProxy is the closed-loop client concurrency.
	clientsPerProxy = 8
	// hybridThreshold is HYBCC's duplicate-below size bound.
	hybridThreshold = 16 << 10
)

// Config describes one Fig 6 experiment.
type Config struct {
	Scheme  Scheme
	Proxies int
	// FileSize is the uniform document size in bytes (Fig 6 sweeps
	// 8k..64k). Ignored when DocSizes is set.
	FileSize int64
	// DocSizes, when non-nil, gives each document its own size (heavy-tail
	// mixes); it overrides FileSize and the working set it implies.
	DocSizes []int64
	// Warmup and Measure are the virtual warm-up and measurement windows.
	Warmup, Measure time.Duration
	Seed            int64
	// ServiceOptions opens the run: registry, fault plan, calibration.
	runtime.ServiceOptions
}

// DefaultConfig returns a Fig 6-shaped experiment: a working set about
// four times one proxy's cache.
func DefaultConfig(scheme Scheme, proxies int, fileSize int64) Config {
	return Config{
		Scheme:   scheme,
		Proxies:  proxies,
		FileSize: fileSize,
		Warmup:   500 * time.Millisecond,
		Measure:  2 * time.Second,
		Seed:     1,
	}
}

// RequestCPU is the per-request HTTP processing cost on a proxy.
const RequestCPU = 25 * time.Microsecond

// backendParallelism bounds concurrent origin fetches cluster-wide.
const backendParallelism = 8

// Stats is the outcome of a run.
type Stats struct {
	Scheme     Scheme
	Requests   int64
	TPS        float64
	LocalHits  int64
	RemoteHits int64
	Misses     int64
	// DuplicateBytes is the aggregate cache space holding second or later
	// copies of a document at the end of the run (the redundancy CCWR
	// eliminates).
	DuplicateBytes int64
}

// DataCenter is a built cooperative-caching deployment.
type DataCenter struct {
	cfg Config
	env *sim.Env
	nw  *verbs.Network

	nodes    []*cacheNode // by node ID: the proxies, then the app tier
	proxies  []*cacheNode // nodes[:Proxies]
	backend  *sim.Resource
	inflight []*reqChain // by doc: the request fetching it from the origin (dedup), nil if none

	// dir is the distributed directory: dirWords words per document, a
	// bitset of the node IDs holding it. A document's words live on its
	// home proxy (dirHome), which decides whether reading or updating
	// them crosses the wire. A bit changes when the insert's batched
	// directory atomics land (dirEntries), an atomic latency after the
	// cache Put for a remote home, so the directory is its own state, not
	// a view of the caches.
	dir      []uint64
	dirWords int

	measuring bool
	stats     Stats

	// tr publishes the deployment's fabric-level op accounting into the
	// env's trace registry; nil when untraced.
	tr *trace.Registry
}

// cacheNode is a node participating in the cache pool.
type cacheNode struct {
	node  *cluster.Node
	dev   *verbs.Device
	cache *lru.Cache[int]
	// freq counts this proxy's requests per document; only HYBCC
	// allocates it, to decide which documents are hot enough to be worth
	// duplicating.
	freq []int32
	// replica is HYBCC's bounded private replica area: duplicated hot
	// documents live here so they can never crowd out single copies.
	replica *lru.Cache[int]
}

// sizeOf returns a document's size under the configuration.
func (cfg *Config) sizeOf(doc int) int64 {
	if cfg.DocSizes != nil {
		return cfg.DocSizes[doc%len(cfg.DocSizes)]
	}
	return cfg.FileSize
}

// docCount returns the working-set size: six proxies' worth of
// uniform documents.
func (cfg *Config) docCount() int {
	if cfg.DocSizes != nil {
		return len(cfg.DocSizes)
	}
	return int(6 * proxyMem / cfg.FileSize)
}

// Build constructs the deployment on a fresh simulated environment;
// cfg.Seed seeds the clients' document streams.
func Build(cfg Config) *DataCenter {
	env := cfg.NewEnv()
	nw := verbs.NewNetwork(env, cfg.Fabric())
	docs, n := cfg.docCount(), cfg.Proxies+appServers
	dc := &DataCenter{cfg: cfg, env: env, nw: nw, inflight: make([]*reqChain, docs),
		dirWords: (n + 63) / 64, tr: trace.Of(env)}
	dc.dir = make([]uint64, docs*dc.dirWords)
	dc.backend = sim.NewResource(env, "backend", backendParallelism)
	dc.nodes = make([]*cacheNode, 0, n)
	for id := 0; id < n; id++ {
		mem := int64(proxyMem)
		if id >= cfg.Proxies {
			mem = appServerMem
		}
		node := cluster.NewNode(env, id, 2, mem*4)
		cn := &cacheNode{node: node, dev: nw.Attach(node)}
		if id < cfg.Proxies && cfg.Scheme == HYBCC {
			// Carve a bounded replica area out of the proxy's memory.
			cn.cache = lru.New[int](mem - mem/8)
			cn.replica = lru.New[int](mem / 8)
			cn.freq = make([]int32, docs)
		} else {
			cn.cache = lru.New[int](mem)
		}
		dc.nodes = append(dc.nodes, cn)
	}
	dc.proxies = dc.nodes[:cfg.Proxies]
	return dc
}

// dirHome returns the proxy holding a document's directory entry.
func (dc *DataCenter) dirHome(doc int) *cacheNode {
	return dc.proxies[doc%len(dc.proxies)]
}

// dirHolders returns doc's directory entry: bit i of the bitset is set
// while node i holds the document.
func (dc *DataCenter) dirHolders(doc int) []uint64 {
	return dc.dir[doc*dc.dirWords : (doc+1)*dc.dirWords]
}
