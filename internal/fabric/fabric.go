// Package fabric models the wire level of the simulated System Area
// Network: the cost parameters of an InfiniBand-class interconnect and of
// the host-based TCP/IP stack, and the per-node NIC transmit engines whose
// serialization delay creates bandwidth contention.
//
// The parameter defaults are calibrated to the 2007-era hardware of the
// paper's testbed (InfiniBand DDR HCAs, host TCP over the same wire). The
// absolute values are documented estimates; every experiment in this
// repository reports shapes (orderings, ratios, crossovers), which depend
// only on the relative structure: one-sided RDMA operations cost a few
// microseconds and no remote CPU, host TCP costs tens of microseconds plus
// CPU work on both hosts.
package fabric

import (
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// Params holds the fabric cost model.
type Params struct {
	// IBSendLatency is the one-way base latency of a two-sided IB
	// send/recv message.
	IBSendLatency time.Duration
	// IBWriteLatency is the end-to-end latency of a 1-byte RDMA write.
	IBWriteLatency time.Duration
	// IBReadLatency is the round-trip latency of a 1-byte RDMA read.
	IBReadLatency time.Duration
	// IBAtomicLatency is the round-trip latency of a remote atomic
	// (compare-and-swap or fetch-and-add).
	IBAtomicLatency time.Duration
	// IBBandwidth is the IB wire bandwidth in bytes/second.
	IBBandwidth float64
	// IBPerMsgTx is the NIC occupancy per IB message independent of size
	// (descriptor processing, doorbell, header) — it bounds small-message
	// rate.
	IBPerMsgTx time.Duration
	// SDPPerChunkCPU is the host-side per-chunk overhead of the copy-based
	// SDP send path (syscall + descriptor setup).
	SDPPerChunkCPU time.Duration

	// TCPLatency is the one-way base latency of a host TCP message,
	// excluding host CPU work.
	TCPLatency time.Duration
	// TCPBandwidth is the TCP streaming bandwidth in bytes/second.
	TCPBandwidth float64
	// TCPCPUPerMsg is the host CPU work per TCP message on each side
	// (interrupts, protocol processing, syscalls).
	TCPCPUPerMsg time.Duration
	// TCPCPUPerKB is additional host CPU work per kilobyte transferred
	// (buffer copies, checksums) on each side.
	TCPCPUPerKB time.Duration

	// MemCopyBandwidth is the in-memory copy bandwidth in bytes/second.
	MemCopyBandwidth float64
	// RegisterPerPage is the cost of registering one 4 KiB page of memory
	// with the HCA (pinning + translation entry).
	RegisterPerPage time.Duration

	// BackendLatency and BackendBandwidth model a fetch from the origin
	// store (disk array / database tier) behind the data-center.
	BackendLatency   time.Duration
	BackendBandwidth float64

	// Connection-state cost model (RDMAvisor-style RC scalability). An RC
	// connection pins per-endpoint HCA state (QP context, WQEs, buffers)
	// of RCConnBytes on BOTH ends; a node's NIC caches ConnCacheEntries
	// connection contexts, and once its resident connection count exceeds
	// that, each operation pays an amortized ConnCacheMissTime for the
	// context fetch from host memory. A pooled/hybrid transport instead
	// keeps one shared datagram-style endpoint (UDEndpointBytes, charged
	// once per node) whose sends cost UDOverhead extra per operation and
	// hold no per-peer state; promoting a hot peer onto a connected
	// transport costs ConnSetupTime (the RC handshake).

	// RCConnBytes is the per-endpoint memory of one connected transport.
	RCConnBytes int64
	// UDEndpointBytes is the per-node memory of the shared datagram-style
	// endpoint used for low-rate peers in pooled mode.
	UDEndpointBytes int64
	// ConnCacheEntries is the NIC's connection-context cache capacity.
	ConnCacheEntries int
	// ConnCacheMissTime is the per-operation cost of fetching a connection
	// context that fell out of the NIC cache, charged amortized over the
	// resident connection count.
	ConnCacheMissTime time.Duration
	// ConnSetupTime is the cost of establishing one connected transport
	// (charged in pooled mode, where establishment is on the hot path).
	ConnSetupTime time.Duration
	// UDOverhead is the extra per-operation cost of the shared datagram
	// endpoint (address handle lookup, no pinned peer context).
	UDOverhead time.Duration
}

// DefaultParams returns the 2007-era calibration described in DESIGN.md.
func DefaultParams() Params {
	return Params{
		IBSendLatency:   4 * time.Microsecond,
		IBWriteLatency:  3500 * time.Nanosecond,
		IBReadLatency:   6 * time.Microsecond,
		IBAtomicLatency: 8 * time.Microsecond,
		IBBandwidth:     900e6,
		IBPerMsgTx:      700 * time.Nanosecond,
		SDPPerChunkCPU:  50 * time.Nanosecond,

		TCPLatency:   45 * time.Microsecond,
		TCPBandwidth: 750e6,
		TCPCPUPerMsg: 12 * time.Microsecond,
		TCPCPUPerKB:  800 * time.Nanosecond,

		MemCopyBandwidth: 3e9,
		RegisterPerPage:  1500 * time.Nanosecond,

		BackendLatency:   2500 * time.Microsecond,
		BackendBandwidth: 200e6,

		RCConnBytes:       24 << 10,
		UDEndpointBytes:   32 << 10,
		ConnCacheEntries:  128,
		ConnCacheMissTime: 1200 * time.Nanosecond,
		ConnSetupTime:     20 * time.Microsecond,
		UDOverhead:        500 * time.Nanosecond,
	}
}

// IBTxTime returns the wire serialization time of n bytes on the IB link.
func (p Params) IBTxTime(n int) time.Duration {
	return time.Duration(float64(n) / p.IBBandwidth * float64(time.Second))
}

// IBMsgTxTime returns the NIC occupancy of one IB message of n bytes:
// per-message overhead plus wire serialization.
func (p Params) IBMsgTxTime(n int) time.Duration {
	return p.IBPerMsgTx + p.IBTxTime(n)
}

// TCPTxTime returns the wire serialization time of n bytes on TCP.
func (p Params) TCPTxTime(n int) time.Duration {
	return time.Duration(float64(n) / p.TCPBandwidth * float64(time.Second))
}

// CopyTime returns the cost of copying n bytes in memory.
func (p Params) CopyTime(n int) time.Duration {
	return time.Duration(float64(n) / p.MemCopyBandwidth * float64(time.Second))
}

// RegisterTime returns the cost of registering n bytes of memory.
func (p Params) RegisterTime(n int) time.Duration {
	pages := (n + 4095) / 4096
	return time.Duration(pages) * p.RegisterPerPage
}

// TCPCPUTime returns the per-side host CPU cost of a TCP message of n
// bytes.
func (p Params) TCPCPUTime(n int) time.Duration {
	return p.TCPCPUPerMsg + time.Duration(float64(n)/1024*float64(p.TCPCPUPerKB))
}

// BackendTime returns the cost of fetching n bytes from the origin store.
func (p Params) BackendTime(n int) time.Duration {
	return p.BackendLatency + time.Duration(float64(n)/p.BackendBandwidth*float64(time.Second))
}

// NIC is a node's network interface; its transmit engine serializes
// outbound transfers, providing bandwidth contention. Every transmit is a
// hold of that engine for the transfer's serialization time, and on a
// traced run the engine itself records each hold's occupancy and queueing
// delay in the node's NICStats (NewNIC installs the recorder), so no
// caller accounts for its own transmits.
type NIC struct {
	Node *cluster.Node
	tx   *sim.Resource
}

// NewNIC builds node's NIC: a transmit engine named "<node>/nic-tx" on
// the node's environment, recording into the environment's trace
// registry if one is bound. The caller keeps one NIC per node.
func NewNIC(node *cluster.Node) *NIC {
	env := node.Env()
	nic := &NIC{
		Node: node,
		tx:   sim.NewResource(env, fmt.Sprintf("%s/nic-tx", node.Name), 1),
	}
	if r := trace.Of(env); r != nil {
		nic.tx.OnHold(r.NIC(node.ID).RecordTx)
	}
	return nic
}

// AcquireTx occupies the transmit engine for the serialization time of a
// transfer. It returns after the last byte is on the wire; the process
// parks once.
func (n *NIC) AcquireTx(p *sim.Proc, ser time.Duration) { n.tx.Use(p, 1, ser) }

// TransmitAsync is AcquireTx from callback context: granted (which may be
// nil) runs the instant the engine is granted, done once the last byte is
// on the wire and the engine is free again (see sim.Resource.HoldAsync).
func (n *NIC) TransmitAsync(ser time.Duration, granted, done func()) {
	n.tx.HoldAsync(1, ser, granted, done)
}

// IWARPParams returns an alternate calibration modelling a 10-Gigabit
// Ethernet iWARP adapter of the same era (RNIC offload over Ethernet):
// slightly higher base latencies than InfiniBand, a 10 Gb/s wire, same
// one-sided semantics. The paper notes its designs "rely on quite common
// features provided by most RDMA-enabled networks"; experiments rerun
// under this calibration must preserve every qualitative shape.
func IWARPParams() Params {
	p := DefaultParams()
	p.IBSendLatency = 7 * time.Microsecond
	p.IBWriteLatency = 6 * time.Microsecond
	p.IBReadLatency = 10 * time.Microsecond
	p.IBAtomicLatency = 12 * time.Microsecond
	p.IBBandwidth = 1.18e9 // 10 Gb/s minus framing
	p.IBPerMsgTx = 900 * time.Nanosecond
	return p
}
