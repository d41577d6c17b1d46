package coopcache

import "ngdc/internal/lru"

// SpillRegions manages the reserved victim regions of a cooperative
// cache tier — the paper's filecache idea (a cluster-wide victim cache
// over aggregate memory) applied to the dc-scale slab tier: when a
// node's LRU evicts a document, the evictor demotes it into a rack
// neighbor's spill region instead of dropping it, and a later miss
// becomes a one-hop remote cache read.
//
// Each node's region is a contiguous run of slab slots past its main
// LRU slots, tracked by one lru.Ring (free slots plus the FIFO order of
// live claims, so a full region reclaims its oldest resident first);
// SpillRegions only translates between the ring's dense indices and
// absolute slab slots.
//
// SpillRegions is bookkeeping only (hint state the spill workers
// consult at decision instants); the demotion's wire cost — the
// one-sided Write of the victim bytes and the directory redirect CAS —
// is charged by the caller.
type SpillRegions struct {
	regs []spillRegion
}

type spillRegion struct {
	base int32 // first absolute slab slot of the region
	ring *lru.Ring
}

// NewSpillRegions builds the allocator: node i's region covers absolute
// slab slots bases[i] .. bases[i]+counts[i]-1. A zero count leaves the
// node without a region (it can still spill to neighbors).
func NewSpillRegions(bases, counts []int32) *SpillRegions {
	if len(bases) != len(counts) {
		panic("coopcache: spill bases/counts length mismatch")
	}
	sr := &SpillRegions{regs: make([]spillRegion, len(bases))}
	for i := range bases {
		sr.regs[i] = spillRegion{base: bases[i], ring: lru.NewRing(int(counts[i]))}
	}
	return sr
}

// Slots returns the size of node n's region.
func (sr *SpillRegions) Slots(n int) int { return sr.regs[n].ring.Slots() }

// Free returns node n's free spill slots — the pressure hint target
// selection ranks neighbors by.
func (sr *SpillRegions) Free(n int) int { return sr.regs[n].ring.Free() }

// Live returns node n's outstanding claims (reclaimable residents).
func (sr *SpillRegions) Live(n int) int { return sr.regs[n].ring.Live() }

// Claim takes a free spill slot on node n, returning its absolute slab
// slot index. ok is false when the region is full (or absent) — the
// caller reclaims or picks another target.
func (sr *SpillRegions) Claim(n int) (slot int32, ok bool) {
	r := sr.regs[n]
	local, ok := r.ring.Claim()
	return r.base + local, ok
}

// Reclaim evicts node n's oldest live spill resident and immediately
// re-claims its slot for the caller, returning the absolute slab slot.
// The caller owns dropping the old resident's placement (metadata and
// directory word). ok is false when nothing is resident.
func (sr *SpillRegions) Reclaim(n int) (slot int32, ok bool) {
	r := sr.regs[n]
	local, ok := r.ring.Reclaim()
	return r.base + local, ok
}

// Touch moves a live claim to the back of the FIFO — the "used again"
// hint a spill hit records. slot is the absolute slab index and must be
// a live claim (the cache tier validates residency against its slot
// metadata before serving the hit that touches); a slot outside the
// region is ignored.
func (sr *SpillRegions) Touch(n int, slot int32) {
	r := sr.regs[n]
	r.ring.Touch(slot - r.base)
}

// Release undoes a claim (a failed demotion, or a spill resident
// dropped by invalidation), returning the slot to the free stack. slot
// is the absolute slab index Claim/Reclaim returned.
func (sr *SpillRegions) Release(n int, slot int32) {
	r := sr.regs[n]
	r.ring.Release(slot - r.base)
}
