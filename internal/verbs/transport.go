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
//   - RCPerPair (default): a connection record is established lazily on
//     first use of a peer and kept forever. Establishment is bookkeeping
//     only (the handshake is off the hot path), so small-cluster timing
//     is byte-identical to the pre-transport-model code; but once the
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
// All records are pooled and recycled; the steady-state datapath stays
// allocation-free in both modes.
//
// The datapath finds connection state without a hash probe. Each device
// keeps a membership bitset over its records, one bit per peer node ID
// (N bits a device, grown on first contact with a higher ID), set for
// initiator and mirror records alike: an RC connection is bidirectional,
// so a node whose peer already connected to it establishes nothing. An
// RC-mode op reads only the bit and the resident count; a pooled-mode op
// reads the record map only on a pool hit, to relink its LRU entry. The
// map stays the record store for the LRU, mirrors and crash teardown.

import (
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

// connKind classifies a connection record on one device.
type connKind uint8

const (
	// connRC is an initiator record in fully-connected mode.
	connRC connKind = iota
	// connPool is an initiator record held in the pooled-mode LRU.
	connPool
	// connMirror is the passive endpoint of a connection some remote
	// initiator established to this node: it pins this node's HCA memory
	// but is owned (and torn down) by the initiator.
	connMirror
)

// conn is one device's record of one established connected transport.
type conn struct {
	peer       int
	kind       connKind
	prev, next *conn // LRU list links (connPool records only)
}

// connState is a device's transport-layer connection state: lazily
// established per-peer records, the pooled-mode LRU and promotion
// sketch, and memory/ops accounting. conns is the record store; linked
// is the datapath's membership test over it — bit p is set iff conns
// holds a record (initiator or mirror) for peer p — and nconns its
// resident count. Only link and unlink change the three.
type connState struct {
	conns              map[int]*conn
	linked             []uint64
	nconns             int
	connFree           []*conn
	lruHead, lruTail   *conn
	poolCount          int
	connBytes          int64
	udActive           bool
	hot                []uint16
	connEst, connEvict int64
	connUD, connMiss   int64
}

func newConnState() connState { return connState{conns: map[int]*conn{}} }

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
	pp := &d.nw.Fab.P
	if d.nw.tc.Mode == RCPerPair {
		if !d.isLinked(peer) {
			d.addConn(peer, connRC)
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
		if c := d.conns[peer]; c.kind == connPool && d.lruHead != c {
			d.lruUnlink(c)
			d.lruPushFront(c)
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
	if d.poolCount >= d.nw.tc.PoolSlots {
		d.evictLRU()
	}
	d.addConn(peer, connPool)
	return pp.ConnSetupTime
}

// addConn establishes a connection record to peer and mirrors the
// passive endpoint on the target device — RC state lives on both ends.
func (d *Device) addConn(peer int, kind connKind) *conn {
	c := d.newConnRec()
	c.peer, c.kind = peer, kind
	d.link(c)
	d.connBytes += d.nw.Fab.P.RCConnBytes
	d.connEst++
	if kind == connPool {
		d.poolCount++
		d.lruPushFront(c)
	}
	if t := d.nw.dev(peer); t != nil && !t.isLinked(d.Node.ID) {
		m := t.newConnRec()
		m.peer, m.kind = d.Node.ID, connMirror
		t.link(m)
		t.connBytes += d.nw.Fab.P.RCConnBytes
	}
	return c
}

// removeConn tears down a connection record; when tearMirror is set and
// the peer holds only the passive mirror of this connection, the
// mirror's memory is freed too.
func (d *Device) removeConn(c *conn, tearMirror bool) {
	if c.kind == connPool {
		d.lruUnlink(c)
		d.poolCount--
	}
	d.unlink(c.peer)
	d.connBytes -= d.nw.Fab.P.RCConnBytes
	if tearMirror {
		if t := d.nw.dev(c.peer); t != nil && t.isLinked(d.Node.ID) {
			if m := t.conns[d.Node.ID]; m.kind == connMirror {
				t.removeConn(m, false)
			}
		}
	}
	d.freeConnRec(c)
}

// evictLRU drops the least-recently-used pooled transport.
func (d *Device) evictLRU() {
	c := d.lruTail
	if c == nil {
		return
	}
	d.connEvict++
	d.removeConn(c, true)
}

// dropPeer tears down this device's connection record to peer, if any.
// Called for every surviving device when peer crashes.
func (d *Device) dropPeer(peer int) {
	if d.isLinked(peer) {
		d.removeConn(d.conns[peer], true)
	}
}

// resetConns flushes all connection state of a crashed device: a restart
// comes back with a cold HCA. Mirrors held by surviving peers for
// connections this node initiated are freed with it.
func (d *Device) resetConns() {
	for _, c := range d.conns {
		d.removeConn(c, true)
	}
	d.udActive = false
	d.connBytes = 0
	for i := range d.hot {
		d.hot[i] = 0
	}
}

// isLinked reports whether d holds a connection record for peer.
func (d *Device) isLinked(peer int) bool {
	w := uint(peer) >> 6
	return w < uint(len(d.linked)) && d.linked[w]&(1<<(uint(peer)&63)) != 0
}

// link stores a new record for c.peer and sets its membership bit.
func (d *Device) link(c *conn) {
	w := c.peer >> 6
	for len(d.linked) <= w {
		d.linked = append(d.linked, 0)
	}
	d.linked[w] |= 1 << (uint(c.peer) & 63)
	d.conns[c.peer] = c
	d.nconns++
}

// unlink removes peer's record and clears its membership bit.
func (d *Device) unlink(peer int) {
	d.linked[peer>>6] &^= 1 << (uint(peer) & 63)
	delete(d.conns, peer)
	d.nconns--
}

func (d *Device) newConnRec() *conn {
	if ln := len(d.connFree); ln > 0 {
		c := d.connFree[ln-1]
		d.connFree = d.connFree[:ln-1]
		return c
	}
	return &conn{}
}

func (d *Device) freeConnRec(c *conn) {
	c.prev, c.next = nil, nil
	d.connFree = append(d.connFree, c)
}

func (d *Device) lruPushFront(c *conn) {
	c.prev = nil
	c.next = d.lruHead
	if d.lruHead != nil {
		d.lruHead.prev = c
	}
	d.lruHead = c
	if d.lruTail == nil {
		d.lruTail = c
	}
}

func (d *Device) lruUnlink(c *conn) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		d.lruHead = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		d.lruTail = c.prev
	}
	c.prev, c.next = nil, nil
}

// ConnStats summarizes one device's transport-layer state.
type ConnStats struct {
	// Conns is the resident connection-record count, including passive
	// mirror endpoints of remotely initiated connections.
	Conns int
	// Pooled is the number of records currently held in the LRU pool.
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
		Pooled:      d.poolCount,
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
