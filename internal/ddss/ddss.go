// Package ddss implements the paper's Distributed Data Sharing Substrate
// (§4.1, [Vaidyanathan et al., HiPC'06]): a soft shared state built from
// one-sided RDMA operations, offering allocate/free/get/put over named
// segments with a choice of coherence models.
//
// A segment lives in registered memory on a home node, laid out as
//
//	[ lock word : 8 ][ version : 8 ][ timestamp : 8 ][ length : 8 ][ data … ]
//
// and is manipulated exclusively with one-sided verbs (RDMA read/write,
// compare-and-swap, fetch-and-add), so no process on the home node is
// involved in data sharing — the property that makes the substrate cheap
// and load-resilient.
//
// Coherence models (Fig 3a):
//
//   - Null: no coherence; put is a bare RDMA write, get a bare read.
//   - Write: writers serialize through the segment lock; readers are
//     unsynchronized.
//   - Read: writers publish a new version after the data write; readers
//     validate the version around the data read and retry on a torn read.
//   - Strict: every operation (read or write) holds the segment lock.
//   - Version: each put bumps the version with a fetch-and-add; gets
//     return data tagged with the version they observed.
//   - Delta: the segment keeps the last K versions in a slot ring; readers
//     may fetch any retained delta.
//   - Temporal: readers may serve from a node-local cached copy until a
//     TTL expires; puts write data and timestamp.
//
// Each model is its put and get scripts, run by one event chain (ops.go)
// after the IPC charge. A step is one one-sided operation, or a CPU
// atomic or memory copy when the segment is home:
//
//	model     put                     get
//	Null      write                   read
//	Write     lock write unlock       read
//	Read      write bump              ver read check
//	Strict    lock write bump unlock  lock read ver unlock
//	Version   write bump              ver read check
//	Delta     bump write              ver read
//	Temporal  write stamp             cached | read refresh
//
// lock is a CAS of the lock word from 0 to the caller, retried lockRetry
// later while another client holds it; unlock writes a zero word; write
// and read move the data at the slot of the version the script holds;
// bump is a fetch-and-add of the version word (the put's version is the
// old value + 1); ver reads the version word, and check rereads it and
// restarts the script if it moved; stamp writes the step's start instant
// into the timestamp word. A Temporal get serves a fresh local copy with
// one memory copy, or reads and refreshes the copy. GetDelta is ver, a
// retention check, then read at the requested slot; WaitVersion, with no
// IPC charge, is ver repeated every poll interval until the version is
// reached. Uncontended, a remote operation's latency is the IPC charge
// plus the sum of its steps' verbs latencies.
//
// The IPC management module of the paper (virtualizing the substrate
// across processes of one node) is modelled as a constant per-operation
// charge (IPCOverhead).
package ddss

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/faults"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// Coherence selects a segment's coherence model.
type Coherence int

// The coherence models of the paper's Fig 3a, plus Temporal.
const (
	Null Coherence = iota
	Write
	Read
	Strict
	Version
	Delta
	Temporal
)

func (c Coherence) String() string {
	switch c {
	case Null:
		return "Null"
	case Write:
		return "Write"
	case Read:
		return "Read"
	case Strict:
		return "Strict"
	case Version:
		return "Version"
	case Delta:
		return "Delta"
	case Temporal:
		return "Temporal"
	default:
		return fmt.Sprintf("Coherence(%d)", int(c))
	}
}

// Models lists the coherence models of the paper's Fig 3a, in the order
// the figure plots them. Temporal is deliberately absent: it is our
// TTL-based extension beyond the figure's sweep, measured separately —
// the full enumeration is the Coherence constants Null..Temporal.
var Models = []Coherence{Null, Read, Write, Strict, Version, Delta}

// Segment header layout.
const (
	hdrLock    = 0
	hdrVersion = 8
	hdrTS      = 16
	hdrLen     = 24
	hdrSize    = 32
)

// DeltaSlots is the number of retained versions for Delta segments.
const DeltaSlots = 4

// IPCOverhead models the per-operation cost of the IPC-management module
// that multiplexes the substrate across local processes.
const IPCOverhead = 300 * time.Nanosecond

// DefaultTTL is the staleness bound of Temporal segments.
const DefaultTTL = 5 * time.Millisecond

// segment is the substrate-wide metadata of one named allocation.
type segment struct {
	key   string
	size  int
	coh   Coherence
	home  int // node ID
	mr    *verbs.MR
	freed bool
}

// dataOff returns the byte offset of version v's data slot.
func (s *segment) dataOff(v uint64) int {
	if s.coh == Delta {
		return hdrSize + int(v%DeltaSlots)*s.size
	}
	return hdrSize
}

// Substrate is the cluster-wide data sharing service.
type Substrate struct {
	nw    *verbs.Network
	nodes []*cluster.Node

	segs map[string]*segment
	// place is the pluggable NodeAuto placement policy (SetPlacement);
	// nil means PlaceLeastLoaded.
	place func(key string, size int) int
}

// Options configures a substrate. It has no fields today; the struct
// keeps the canonical (nw, nodes, opts) constructor form.
type Options struct{}

// New builds a substrate over the given nodes, in the framework's
// canonical (nw, nodes, opts) constructor form.
func New(nw *verbs.Network, nodes []*cluster.Node, _ Options) *Substrate {
	s := &Substrate{nw: nw, nodes: nodes, segs: map[string]*segment{}}
	for _, n := range nodes {
		nw.Attach(n)
	}
	return s
}

// Client returns a node-local handle to the substrate.
func (s *Substrate) Client(nodeID int) *Client {
	dev := s.nw.Device(nodeID)
	if dev == nil {
		panic(fmt.Sprintf("ddss: node %d not part of substrate", nodeID))
	}
	return &Client{ss: s, dev: dev, cache: map[string]*cachedCopy{}}
}

// PlaceLeastLoaded returns the substrate node with the most free memory —
// the data-placement module's default policy. Nodes currently down under
// an installed fault plan are not eligible.
func (s *Substrate) PlaceLeastLoaded() int {
	flt := faults.Of(s.nw.Env)
	var best *cluster.Node
	for _, n := range s.nodes {
		if flt.Down(n.ID) {
			continue
		}
		if best == nil || n.MemFree() > best.MemFree() {
			best = n
		}
	}
	if best == nil {
		return s.nodes[0].ID // every node down: placement is moot
	}
	return best.ID
}

// Rehome moves a segment whose home node failed onto a live node,
// allocating fresh storage there and rebinding the segment. The old
// home's memory died with it, so the contents are NOT carried over: the
// segment comes back zeroed at version 0, like a cold restart, and the
// callers repopulate it. newHome may be NodeAuto. Returns the new home.
//
// Rehoming a segment whose home is still up is refused — the substrate
// offers no live migration.
func (s *Substrate) Rehome(p *sim.Proc, key string, newHome int) (int, error) {
	seg, ok := s.segs[key]
	if !ok || seg.freed {
		return 0, fmt.Errorf("ddss: rehome %q: no such segment", key)
	}
	flt := faults.Of(s.nw.Env)
	if !flt.Down(seg.home) {
		return 0, fmt.Errorf("ddss: rehome %q: home node %d is up", key, seg.home)
	}
	if newHome == NodeAuto {
		newHome = s.placeAuto(key, seg.size)
	}
	if flt.Down(newHome) {
		return 0, fmt.Errorf("ddss: rehome %q: node %d is down", key, newHome)
	}
	homeDev := s.nw.Device(newHome)
	if homeDev == nil {
		return 0, fmt.Errorf("ddss: rehome %q: no node %d", key, newHome)
	}
	bytes := hdrSize + seg.size
	if seg.coh == Delta {
		bytes = hdrSize + DeltaSlots*seg.size
	}
	if !homeDev.Node.Alloc(int64(bytes)) {
		return 0, fmt.Errorf("ddss: rehome %q: node %d out of memory", key, newHome)
	}
	p.Sleep(IPCOverhead)
	mr := homeDev.Register(p, make([]byte, bytes))
	// Release the old home's accounting; its registered bytes were lost
	// in the crash, and a restart brings the node back cold.
	s.nw.Device(seg.home).Node.Free(int64(bytes))
	seg.mr.Deregister()
	seg.mr = mr
	seg.home = newHome
	return newHome, nil
}

// Client is a per-node (per-process group) access point.
type Client struct {
	ss    *Substrate
	dev   *verbs.Device
	cache map[string]*cachedCopy // Temporal-coherence local copies
	// free recycles the records of blocking operations.
	free []*Op
}

type cachedCopy struct {
	data    []byte
	fetched sim.Time
}

// Handle is an open reference to a segment.
type Handle struct {
	c   *Client
	seg *segment
}

// Allocate creates a named segment of size bytes with the given coherence
// on the home node (NodeAuto picks the least-loaded node). It charges the
// memory registration cost and fails if the name exists or memory is
// exhausted.
func (c *Client) Allocate(p *sim.Proc, key string, size int, coh Coherence, home int) (*Handle, error) {
	if _, ok := c.ss.segs[key]; ok {
		return nil, fmt.Errorf("ddss: allocate %q: already exists", key)
	}
	if size <= 0 {
		return nil, fmt.Errorf("ddss: allocate %q: bad size %d", key, size)
	}
	if coh < Null || coh > Temporal {
		return nil, fmt.Errorf("ddss: allocate %q: unknown coherence %v", key, coh)
	}
	if home == NodeAuto {
		home = c.ss.placeAuto(key, size)
	}
	homeDev := c.ss.nw.Device(home)
	if homeDev == nil {
		return nil, fmt.Errorf("ddss: allocate %q: no node %d", key, home)
	}
	bytes := hdrSize + size
	if coh == Delta {
		bytes = hdrSize + DeltaSlots*size
	}
	if !homeDev.Node.Alloc(int64(bytes)) {
		return nil, fmt.Errorf("ddss: allocate %q: node %d out of memory", key, home)
	}
	p.Sleep(IPCOverhead)
	mr := homeDev.Register(p, make([]byte, bytes))
	seg := &segment{key: key, size: size, coh: coh, home: home, mr: mr}
	c.ss.segs[key] = seg
	return &Handle{c: c, seg: seg}, nil
}

// NodeAuto asks Allocate to pick the home node by the placement policy.
const NodeAuto = -1

// Open returns a handle to an existing segment.
func (c *Client) Open(key string) (*Handle, error) {
	seg, ok := c.ss.segs[key]
	if !ok || seg.freed {
		return nil, fmt.Errorf("ddss: open %q: no such segment", key)
	}
	return &Handle{c: c, seg: seg}, nil
}

// Free releases the segment's memory and unregisters it.
func (h *Handle) Free(p *sim.Proc) error {
	if h.seg.freed {
		return fmt.Errorf("ddss: free %q: already freed", h.seg.key)
	}
	p.Sleep(IPCOverhead)
	h.seg.freed = true
	h.seg.mr.Deregister()
	home := h.c.ss.nw.Device(h.seg.home).Node
	bytes := hdrSize + h.seg.size
	if h.seg.coh == Delta {
		bytes = hdrSize + DeltaSlots*h.seg.size
	}
	home.Free(int64(bytes))
	delete(h.c.ss.segs, h.seg.key)
	return nil
}

// HomeNode returns the node ID holding the segment.
func (h *Handle) HomeNode() int { return h.seg.home }
