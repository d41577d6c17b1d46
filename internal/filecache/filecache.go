// Package filecache implements the remote-memory file-system cache the
// paper plans in §6 ("utilizing the remote memory on a file system cache
// miss to avoid cache corruption", building on [Vaidyanathan et al.,
// CAECW'05]): a node's buffer cache backed by a cluster-wide victim cache
// in aggregate remote memory (the gma primitive), so that
//
//   - a local miss can often be served with a ~10 µs one-sided RDMA read
//     instead of a millisecond disk access, and
//   - cache contents survive events that wipe a node's local cache (a
//     reconfiguration moving the service, a server restart): the warm
//     pages are still in remote memory.
//
// Two modes are compared: DiskOnly (classic buffer cache) and
// RemoteMemory (victim cache in aggregate memory).
package filecache

import (
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/gma"
	"ngdc/internal/lru"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// Mode selects the miss path.
type Mode int

// The compared modes.
const (
	DiskOnly Mode = iota
	RemoteMemory
)

func (m Mode) String() string {
	if m == DiskOnly {
		return "disk-only"
	}
	return "remote-memory"
}

// Source reports where a read was served from.
type Source int

// Read sources.
const (
	FromLocal Source = iota
	FromRemote
	FromDisk
)

func (s Source) String() string {
	switch s {
	case FromLocal:
		return "local"
	case FromRemote:
		return "remote"
	default:
		return "disk"
	}
}

// A cache's fixed shape.
const (
	// pageSize is the cache block size in bytes.
	pageSize = 16 << 10
	// localPages is the capacity of the node-local cache in pages.
	localPages = 64
)

// Config sizes a cache.
type Config struct {
	Mode Mode
	// VictimPages bounds the remote victim cache in pages.
	VictimPages int
}

// DefaultConfig returns a small cache suitable for experiments.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:        mode,
		VictimPages: 256,
	}
}

// Stats counts read outcomes.
type Stats struct {
	Reads       int64
	LocalHits   int64
	RemoteHits  int64
	DiskReads   int64
	TotalTimeUs float64
}

// MeanLatencyUs returns the mean read latency in microseconds.
func (s Stats) MeanLatencyUs() float64 {
	if s.Reads == 0 {
		return 0
	}
	return s.TotalTimeUs / float64(s.Reads)
}

// pageKey identifies a file page.
type pageKey struct {
	file, page int
}

// victim is one page parked in remote memory, under one slot of the
// victim tier's eviction ring. A victim is registered (remote, parked)
// before its first costed operation, so no two processes ever own one
// slot or park one page twice; busy counts the operations in flight on
// it — the demotion still writing it (buf is nil until that write is
// placed) and every one-sided read of it — and a busy victim is never
// reclaimed.
type victim struct {
	key  pageKey
	buf  *gma.Buf
	slot int32
	busy int
}

// Cache is one node's file-system cache.
type Cache struct {
	cfg Config
	dev *verbs.Device

	// local is the LRU of resident pages (each page counts one unit).
	local  *lru.Cache[pageKey]
	gmaCli *gma.Client
	remote map[pageKey]*victim
	// order is the victim tier's eviction order over slots
	// 0..VictimPages-1 (oldest parked first, refreshed on every remote
	// hit and re-demotion); parked names the page under each slot.
	order  *lru.Ring
	parked []*victim
	Stats  Stats
}

// New builds a cache on node, with the victim tier allocated from the
// given aggregator (which should pool the *other* nodes' memory). The
// aggregator may be nil for DiskOnly mode.
func New(cfg Config, nw *verbs.Network, node *cluster.Node, agg *gma.Aggregator) *Cache {
	c := &Cache{
		cfg:    cfg,
		dev:    nw.Attach(node),
		local:  lru.New[pageKey](localPages),
		remote: map[pageKey]*victim{},
	}
	if cfg.Mode == RemoteMemory {
		if agg == nil {
			panic("filecache: remote-memory mode needs an aggregator")
		}
		c.gmaCli = agg.Client(node.ID)
		c.order = lru.NewRing(cfg.VictimPages)
		c.parked = make([]*victim, c.order.Slots())
	}
	return c
}

// Read fetches one page of a file, returning where it was served from.
func (c *Cache) Read(p *sim.Proc, file, page int) (Source, error) {
	key := pageKey{file: file, page: page}
	start := p.Now()
	defer func() {
		c.Stats.Reads++
		c.Stats.TotalTimeUs += float64(p.Now()-start) / float64(time.Microsecond)
	}()
	pp := c.dev.Params()

	if c.local.Get(key) {
		p.Sleep(pp.CopyTime(pageSize))
		c.Stats.LocalHits++
		return FromLocal, nil
	}

	if c.cfg.Mode == RemoteMemory {
		if v, ok := c.remote[key]; ok && v.buf != nil {
			// One-sided read from the victim tier, then promote. The page
			// moves to the back of the eviction order and is held busy
			// for the read, so a demotion racing it cannot free the
			// buffer in flight.
			c.order.Touch(v.slot)
			buf := make([]byte, pageSize)
			v.busy++
			err := c.gmaCli.Read(p, buf, v.buf, 0)
			v.busy--
			if err != nil {
				return FromRemote, err
			}
			if err := c.insertLocal(p, key); err != nil {
				return FromRemote, err
			}
			c.Stats.RemoteHits++
			return FromRemote, nil
		}
	}

	// Disk.
	p.Sleep(pp.BackendTime(pageSize))
	if err := c.insertLocal(p, key); err != nil {
		return FromDisk, err
	}
	c.Stats.DiskReads++
	return FromDisk, nil
}

// insertLocal adds a page to the local LRU, demoting LRU victims to
// remote memory in RemoteMemory mode.
func (c *Cache) insertLocal(p *sim.Proc, key pageKey) error {
	for _, evicted := range c.local.Put(key, 1) {
		if c.cfg.Mode == RemoteMemory {
			if err := c.demote(p, evicted); err != nil {
				return err
			}
		}
	}
	return nil
}

// demote parks an evicted page in the remote victim tier. The page takes
// its slot before any costed operation; when the tier is full the oldest
// idle page makes room, and its buffer is freed by the slot it was parked
// under — never by a stale queue position.
func (c *Cache) demote(p *sim.Proc, key pageKey) error {
	if v, ok := c.remote[key]; ok {
		// Already parked (a promoted copy was read-only) or being parked
		// by another process: refresh its eviction position instead of
		// leaving the page to die at its old one — it was just the LRU's
		// most recent victim.
		c.order.Touch(v.slot)
		return nil
	}
	slot, ok := c.order.Claim()
	var old *victim
	if !ok {
		if slot, old = c.reclaim(); old == nil {
			return nil // nothing reclaimable: drop the page (disk still has it)
		}
		delete(c.remote, old.key)
	}
	v := &victim{key: key, slot: slot, busy: 1}
	c.remote[key], c.parked[slot] = v, v
	err := c.park(p, v, old)
	v.busy--
	if v.buf == nil {
		delete(c.remote, key)
		c.parked[slot] = nil
		c.order.Release(slot)
	}
	return err
}

// reclaim takes the slot of the oldest parked page with nothing in
// flight on it. A busy page met on the way has already moved to the back
// of the order (Reclaim re-stamps what it pops), which is where an
// in-flight page belongs. old is nil when every slot is busy, or the tier
// has none.
func (c *Cache) reclaim() (slot int32, old *victim) {
	for range c.order.Live() {
		slot, _ = c.order.Reclaim()
		if v := c.parked[slot]; v.busy == 0 {
			return slot, v
		}
	}
	return 0, nil
}

// park runs a demotion's costed half: free the reclaimed page's buffer,
// then allocate and fill v's. v.buf is set only once the page is placed.
func (c *Cache) park(p *sim.Proc, v, old *victim) error {
	if old != nil {
		if err := c.gmaCli.Free(p, old.buf); err != nil {
			return err
		}
	}
	buf, err := c.gmaCli.Alloc(p, pageSize)
	if err != nil {
		return nil // aggregate memory exhausted: drop the page (disk still has it)
	}
	if err := c.gmaCli.Write(p, buf, 0, make([]byte, pageSize)); err != nil {
		return err
	}
	v.buf = buf
	return nil
}

// FlushLocal drops the entire local cache — what a service restart or a
// reconfiguration move does to a node's buffer cache. The remote victim
// tier is unaffected: that is the §6 "avoid cache corruption" property.
func (c *Cache) FlushLocal() {
	// Demote nothing: the flush models lost state, and pages already
	// demoted stay warm remotely.
	c.local.Clear()
}

// LocalPages returns the number of locally resident pages.
func (c *Cache) LocalPages() int { return c.local.Len() }

// RemotePages returns the number of pages parked remotely.
func (c *Cache) RemotePages() int { return len(c.remote) }
