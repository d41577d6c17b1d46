package verbs

// Transport-layer connection state. Real RC (reliable-connected) verbs
// pin per-peer HCA state on both endpoints of every connection: QP
// context, work-queue entries, buffers. A fully-connected N-node cluster
// therefore holds O(N) state per node and O(N²) cluster-wide, and once a
// node's resident connection count exceeds the NIC's connection-context
// cache, every operation pays a context fetch from host memory — the
// RC connection-scalability problem RDMAvisor attacks with shared and
// pooled transports.
//
// This file models both regimes behind the unchanged Device API:
//
//   - RCPerPair (default): a connection is established lazily on first
//     use of a peer and kept forever. Establishment is bookkeeping only
//     (the handshake is off the hot path), so small-cluster timing is
//     byte-identical to the pre-transport-model code; but once the
//     resident count exceeds Params.ConnCacheEntries, operations pay an
//     amortized Params.ConnCacheMissTime for NIC context-cache thrash.
//
//   - Pooled: each node keeps at most TransportConfig.PoolSlots connected
//     transports in an LRU pool, plus one shared datagram-style (UD)
//     endpoint for everything else. Operations on unpooled peers pay
//     Params.UDOverhead; a peer that stays hot (TransportConfig.
//     PromoteAfter uses counted in a fixed-size sketch) is promoted onto
//     a connected transport for Params.ConnSetupTime, evicting the
//     least-recently-used pool entry when the pool is full. Steady-state
//     connection memory is O(PoolSlots), not O(N).
//
// The simulator's own bookkeeping keeps no record per peer. Each device
// holds two bitsets by peer node ID (grown on first contact with a
// higher ID): linked marks every peer it holds a connection endpoint
// for, initiator or mirror — an RC connection is bidirectional, so a
// node whose peer already connected to it establishes nothing — and
// mirrored marks the passive endpoints, which pin this node's HCA memory
// but are owned (and torn down) by their initiator. An RC-mode op reads
// only the linked bit and the resident count. Pooled mode adds one
// array, lru, of at most PoolSlots (peer, last-use stamp) entries,
// allocated on the first promotion: a pool hit (linked, not mirrored)
// scans it to restamp its entry, and an eviction drops the least stamp.
// The steady-state datapath allocates nothing in either mode.

import (
	"math/bits"
	"time"
)

// TransportMode selects how a Network manages per-peer connection state.
type TransportMode uint8

const (
	// RCPerPair keeps one connected transport per communicating pair,
	// established lazily on first use and never torn down — the classic
	// fully-connected RC layout. Default.
	RCPerPair TransportMode = iota
	// Pooled keeps a fixed-size LRU pool of connected transports per node
	// plus a shared datagram-style endpoint for low-rate peers — the
	// RDMAvisor-style hybrid whose per-node state is O(pool).
	Pooled
)

// String names the mode for tables and logs.
func (m TransportMode) String() string {
	if m == Pooled {
		return "pooled"
	}
	return "rc"
}

// TransportConfig configures a Network's connection management.
type TransportConfig struct {
	Mode TransportMode
	// PoolSlots caps the connected transports a node holds in pooled
	// mode (0 = default 64).
	PoolSlots int
	// PromoteAfter is the number of uses after which a peer is promoted
	// from the shared endpoint onto a connected transport (0 = default
	// 16; 1 promotes on first use, making the pool a pure LRU cache).
	PromoteAfter int
}

// PooledTransport returns the default pooled-mode configuration.
func PooledTransport() TransportConfig { return TransportConfig{Mode: Pooled} }

func (tc TransportConfig) withDefaults() TransportConfig {
	if tc.Mode == Pooled {
		if tc.PoolSlots <= 0 {
			tc.PoolSlots = 64
		}
		if tc.PromoteAfter <= 0 {
			tc.PromoteAfter = 16
		}
	}
	return tc
}

// connState is a device's transport-layer connection state: the
// membership bitsets, the pooled-mode LRU and promotion sketch, and
// memory/ops accounting. Bit p of linked is set iff the device holds an
// endpoint for peer p, and of mirrored iff that endpoint is the passive
// mirror of a connection p initiated; nconns counts the linked bits.
// Only link and unlink change the three. In pooled mode every linked,
// unmirrored peer has one pool entry.
type connState struct {
	linked, mirrored   []uint64
	nconns             int
	lru                []poolEntry
	lastUse            uint64 // the latest pool stamp
	connBytes          int64
	udActive           bool
	hot                []uint16
	connEst, connEvict int64
	connUD, connMiss   int64
}

// poolEntry is one pooled connected transport: its peer and the stamp
// of its last use.
type poolEntry struct {
	peer int
	used uint64
}

// hotSketchSlots sizes the pooled-mode promotion sketch: a fixed array
// of saturating use counters indexed by a hash of the peer ID, so
// promotion tracking costs O(1) memory regardless of cluster size.
const hotSketchSlots = 1024

func hotSlot(peer int) int {
	return int((uint32(peer) * 2654435761) >> 22) // top 10 bits of a Fibonacci hash
}

// connCost charges the transport-layer cost of one operation from d to
// the peer node and returns the extra latency the operation pays. It is
// the single entry point of the connection model: every verbs datapath
// (one-sided, atomic, two-sided) calls it once per operation, after
// validation and fault checks. Loopback is free.
func (d *Device) connCost(peer int) time.Duration {
	if peer == d.Node.ID {
		return 0
	}
	pp := &d.nw.params
	if d.nw.tc.Mode == RCPerPair {
		if !d.isLinked(peer) {
			d.addConn(peer)
		}
		// NIC connection-context cache: resident connections beyond the
		// cache thrash it; the miss cost is charged amortized over the
		// resident count so the model stays smooth and deterministic.
		if n := d.nconns; n > pp.ConnCacheEntries {
			d.connMiss++
			return pp.ConnCacheMissTime * time.Duration(n-pp.ConnCacheEntries) / time.Duration(n)
		}
		return 0
	}
	// Pooled mode.
	if d.isLinked(peer) {
		if !isSet(d.mirrored, peer) {
			d.lastUse++
			d.lru[d.poolIndex(peer)].used = d.lastUse
		}
		return 0
	}
	if d.hot == nil {
		d.hot = make([]uint16, hotSketchSlots)
	}
	slot := &d.hot[hotSlot(peer)]
	if int(*slot)+1 < d.nw.tc.PromoteAfter {
		*slot++
		// Low-rate peer: ride the shared datagram-style endpoint. Its
		// memory is charged once, on first use after boot or restart.
		if !d.udActive {
			d.udActive = true
			d.connBytes += pp.UDEndpointBytes
		}
		d.connUD++
		return pp.UDOverhead
	}
	// Hot peer: promote onto a connected transport, evicting the
	// least-recently-used pool entry if the pool is full.
	*slot = 0
	if len(d.lru) >= d.nw.tc.PoolSlots {
		d.evictLRU()
	}
	d.addConn(peer)
	return pp.ConnSetupTime
}

// addConn establishes a connection to peer, entering it in the pool in
// pooled mode, and mirrors the passive endpoint on the target device —
// RC state lives on both ends.
func (d *Device) addConn(peer int) {
	d.link(peer, false)
	d.connEst++
	if d.nw.tc.Mode == Pooled {
		if d.lru == nil {
			d.lru = make([]poolEntry, 0, d.nw.tc.PoolSlots)
		}
		d.lastUse++
		d.lru = append(d.lru, poolEntry{peer, d.lastUse})
	}
	if t := d.nw.dev(peer); t != nil && !t.isLinked(d.Node.ID) {
		t.link(d.Node.ID, true)
	}
}

// removeConn tears down d's endpoint for peer; when tearMirror is set
// and the peer holds only the passive mirror of this connection, the
// mirror's memory is freed too.
func (d *Device) removeConn(peer int, tearMirror bool) {
	if d.nw.tc.Mode == Pooled && !isSet(d.mirrored, peer) {
		i, last := d.poolIndex(peer), len(d.lru)-1
		d.lru[i] = d.lru[last]
		d.lru = d.lru[:last]
	}
	d.unlink(peer)
	if t := d.nw.dev(peer); tearMirror && t != nil && isSet(t.mirrored, d.Node.ID) {
		t.removeConn(d.Node.ID, false)
	}
}

// poolIndex returns the index of peer's pool entry; the caller knows
// there is one.
func (d *Device) poolIndex(peer int) int {
	for i := range d.lru {
		if d.lru[i].peer == peer {
			return i
		}
	}
	panic("verbs: pooled connection without a pool entry")
}

// evictLRU drops the least-recently-used pooled transport.
func (d *Device) evictLRU() {
	if len(d.lru) == 0 {
		return
	}
	oldest := 0
	for i := range d.lru {
		if d.lru[i].used < d.lru[oldest].used {
			oldest = i
		}
	}
	d.connEvict++
	d.removeConn(d.lru[oldest].peer, true)
}

// dropPeer tears down this device's connection endpoint for peer, if
// any. Called for every surviving device when peer crashes.
func (d *Device) dropPeer(peer int) {
	if d.isLinked(peer) {
		d.removeConn(peer, true)
	}
}

// resetConns flushes all connection state of a crashed device: a restart
// comes back with a cold HCA. Mirrors held by surviving peers for
// connections this node initiated are freed with it.
func (d *Device) resetConns() {
	for w, word := range d.linked {
		for ; word != 0; word &= word - 1 {
			d.removeConn(w<<6|bits.TrailingZeros64(word), true)
		}
	}
	d.udActive = false
	d.connBytes = 0
	clear(d.hot)
}

// isLinked reports whether d holds a connection endpoint for peer.
func (d *Device) isLinked(peer int) bool { return isSet(d.linked, peer) }

// isSet reports bit peer of a membership bitset.
func isSet(set []uint64, peer int) bool {
	w := uint(peer) >> 6
	return w < uint(len(set)) && set[w]&(1<<(uint(peer)&63)) != 0
}

// link sets peer's membership bits and charges the endpoint's memory.
func (d *Device) link(peer int, mirror bool) {
	w := peer >> 6
	for len(d.linked) <= w {
		d.linked = append(d.linked, 0)
		d.mirrored = append(d.mirrored, 0)
	}
	d.linked[w] |= 1 << (uint(peer) & 63)
	if mirror {
		d.mirrored[w] |= 1 << (uint(peer) & 63)
	}
	d.nconns++
	d.connBytes += d.nw.params.RCConnBytes
}

// unlink clears peer's membership bits and frees the endpoint's memory.
func (d *Device) unlink(peer int) {
	d.linked[peer>>6] &^= 1 << (uint(peer) & 63)
	d.mirrored[peer>>6] &^= 1 << (uint(peer) & 63)
	d.nconns--
	d.connBytes -= d.nw.params.RCConnBytes
}

// ConnStats summarizes one device's transport-layer state.
type ConnStats struct {
	// Conns is the resident connection count, including passive
	// mirror endpoints of remotely initiated connections.
	Conns int
	// Pooled is the number of connections currently held in the LRU pool.
	Pooled int
	// Bytes is the HCA memory pinned by connection state on this node.
	Bytes int64
	// Establishes counts connections this device initiated.
	Establishes int64
	// Evictions counts pooled transports dropped to make room.
	Evictions int64
	// UDOps counts operations that rode the shared datagram endpoint.
	UDOps int64
	// CacheMisses counts operations that paid NIC context-cache thrash.
	CacheMisses int64
}

// ConnStats returns the device's transport-layer counters.
func (d *Device) ConnStats() ConnStats {
	return ConnStats{
		Conns:       d.nconns,
		Pooled:      len(d.lru),
		Bytes:       d.connBytes,
		Establishes: d.connEst,
		Evictions:   d.connEvict,
		UDOps:       d.connUD,
		CacheMisses: d.connMiss,
	}
}

// Transport returns the network's transport configuration (defaults
// applied).
func (nw *Network) Transport() TransportConfig { return nw.tc }

// ConnBytesPerNode returns the average and maximum HCA memory pinned by
// connection state across all attached devices.
func (nw *Network) ConnBytesPerNode() (avg float64, max int64) {
	var total int64
	attached := 0
	for _, d := range nw.devs {
		if d == nil {
			continue
		}
		attached++
		total += d.connBytes
		if d.connBytes > max {
			max = d.connBytes
		}
	}
	if attached == 0 {
		return 0, 0
	}
	return float64(total) / float64(attached), max
}

// ConnTotals sums the transport counters across all attached devices.
func (nw *Network) ConnTotals() (establishes, evictions, udOps, cacheMisses int64) {
	for _, d := range nw.devs {
		if d == nil {
			continue
		}
		establishes += d.connEst
		evictions += d.connEvict
		udOps += d.connUD
		cacheMisses += d.connMiss
	}
	return
}
