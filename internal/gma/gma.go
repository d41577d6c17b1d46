// Package gma implements the framework's Global Memory Aggregator
// primitive (Fig 1, data-center service primitives layer): the idle
// memory of all nodes pooled into one allocatable space, accessed with
// one-sided verbs. Services built on it (e.g. the remote-memory file
// cache of §6) can treat the cluster's spare DRAM as a single fast tier
// between local memory and disk.
//
// Each node contributes a registered arena; a first-fit, coalescing
// free-list allocator manages every arena, and allocation policy favours
// the node with the most free aggregate memory (local arena preferred on
// ties, making the common case a local allocation).
package gma

import (
	"fmt"

	"ngdc/internal/cluster"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// arena is one node's contribution to the pool.
type arena struct {
	dev  *verbs.Device
	mr   *verbs.MR
	free int64
	// holes is the free list, sorted by offset, coalesced.
	holes []hole
}

type hole struct {
	off, size int64
}

// Buf is an allocated region of aggregate memory.
type Buf struct {
	arena *arena
	off   int64
	size  int64
	freed bool
}

// Aggregator is the cluster-wide memory pool.
type Aggregator struct {
	arenas []*arena // in the order the nodes were pooled
}

// Options configures an aggregator.
type Options struct {
	// ArenaPerNode is each node's contribution in bytes (default 16 MiB).
	ArenaPerNode int64
}

// New pools opts.ArenaPerNode bytes from each node, in the framework's
// canonical (nw, nodes, opts) constructor form. The arenas are registered
// at setup (no virtual time is charged); node memory accounting reflects
// the contribution.
func New(nw *verbs.Network, nodes []*cluster.Node, opts Options) (*Aggregator, error) {
	arenaPerNode := opts.ArenaPerNode
	if arenaPerNode <= 0 {
		arenaPerNode = 16 << 20
	}
	a := &Aggregator{}
	for _, n := range nodes {
		dev := nw.Attach(n)
		if !n.Alloc(arenaPerNode) {
			return nil, fmt.Errorf("gma: node %d cannot contribute %d bytes", n.ID, arenaPerNode)
		}
		a.arenas = append(a.arenas, &arena{
			dev:   dev,
			mr:    dev.RegisterAtSetup(make([]byte, arenaPerNode)),
			free:  arenaPerNode,
			holes: []hole{{off: 0, size: arenaPerNode}},
		})
	}
	return a, nil
}

// TotalFree returns the aggregate free bytes.
func (a *Aggregator) TotalFree() int64 {
	var t int64
	for _, ar := range a.arenas {
		t += ar.free
	}
	return t
}

// Client is a node-local handle to the pool.
type Client struct {
	agg   *Aggregator
	local *arena // the node's own contribution
}

// Client returns the handle for a participating node.
func (a *Aggregator) Client(nodeID int) *Client {
	for _, ar := range a.arenas {
		if ar.dev.Node.ID == nodeID {
			return &Client{agg: a, local: ar}
		}
	}
	panic(fmt.Sprintf("gma: node %d not in pool", nodeID))
}

// allocFrom carves size bytes from an arena with first fit.
func (ar *arena) allocFrom(size int64) (int64, bool) {
	for i, h := range ar.holes {
		if h.size < size {
			continue
		}
		off := h.off
		if h.size == size {
			ar.holes = append(ar.holes[:i], ar.holes[i+1:]...)
		} else {
			ar.holes[i] = hole{off: h.off + size, size: h.size - size}
		}
		ar.free -= size
		return off, true
	}
	return 0, false
}

// release returns a region to an arena's free list, coalescing neighbours.
func (ar *arena) release(off, size int64) {
	i := 0
	for i < len(ar.holes) && ar.holes[i].off < off {
		i++
	}
	ar.holes = append(ar.holes, hole{})
	copy(ar.holes[i+1:], ar.holes[i:])
	ar.holes[i] = hole{off: off, size: size}
	ar.free += size
	// Coalesce with the next hole, then the previous one.
	if i+1 < len(ar.holes) && ar.holes[i].off+ar.holes[i].size == ar.holes[i+1].off {
		ar.holes[i].size += ar.holes[i+1].size
		ar.holes = append(ar.holes[:i+1], ar.holes[i+2:]...)
	}
	if i > 0 && ar.holes[i-1].off+ar.holes[i-1].size == ar.holes[i].off {
		ar.holes[i-1].size += ar.holes[i].size
		ar.holes = append(ar.holes[:i], ar.holes[i+1:]...)
	}
}

// Alloc reserves size bytes somewhere in the pool: the local arena if it
// has the most free space (ties favour local), else the freest remote
// arena. Remote allocation costs one atomic round trip (the free-list
// update); local allocation is a CPU-only operation.
func (c *Client) Alloc(p *sim.Proc, size int64) (*Buf, error) {
	if size <= 0 {
		return nil, fmt.Errorf("gma: bad alloc size %d", size)
	}
	best := c.local
	for _, ar := range c.agg.arenas {
		if ar.free > best.free {
			best = ar
		}
	}
	// First fit can fail even when free >= size (fragmentation); fall
	// back to scanning every other arena in pool order.
	ar := best
	off, ok := ar.allocFrom(size)
	for _, next := range c.agg.arenas {
		if ok {
			break
		}
		if next != best {
			ar = next
			off, ok = ar.allocFrom(size)
		}
	}
	if !ok {
		return nil, fmt.Errorf("gma: out of aggregate memory (%d requested, %d free)", size, c.agg.TotalFree())
	}
	if ar != c.local {
		p.Sleep(c.local.dev.Params().IBAtomicLatency)
	}
	return &Buf{arena: ar, off: off, size: size}, nil
}

// Free returns the buffer to the pool.
func (c *Client) Free(p *sim.Proc, b *Buf) error {
	if b.freed {
		return fmt.Errorf("gma: double free")
	}
	b.freed = true
	if b.arena != c.local {
		p.Sleep(c.local.dev.Params().IBAtomicLatency)
	}
	b.arena.release(b.off, b.size)
	return nil
}

// Write stores data into the buffer at off: an RDMA write remotely, a
// memory copy locally.
func (c *Client) Write(p *sim.Proc, b *Buf, off int64, data []byte) error {
	if b.freed {
		return fmt.Errorf("gma: write to freed buffer")
	}
	if off < 0 || off+int64(len(data)) > b.size {
		return fmt.Errorf("gma: write out of bounds")
	}
	if b.arena == c.local {
		p.Sleep(c.local.dev.Params().CopyTime(len(data)))
		copy(b.arena.mr.Bytes()[b.off+off:], data)
		return nil
	}
	return c.local.dev.Write(p, b.arena.mr.Addr(), int(b.off+off), data)
}

// Read loads len(buf) bytes from the buffer at off.
func (c *Client) Read(p *sim.Proc, buf []byte, b *Buf, off int64) error {
	if b.freed {
		return fmt.Errorf("gma: read from freed buffer")
	}
	if off < 0 || off+int64(len(buf)) > b.size {
		return fmt.Errorf("gma: read out of bounds")
	}
	if b.arena == c.local {
		p.Sleep(c.local.dev.Params().CopyTime(len(buf)))
		copy(buf, b.arena.mr.Bytes()[b.off+off:])
		return nil
	}
	return c.local.dev.Read(p, buf, b.arena.mr.Addr(), int(b.off+off))
}
