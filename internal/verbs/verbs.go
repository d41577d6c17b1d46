// Package verbs provides an RDMA-verbs-like programming interface on top
// of the simulated fabric: memory regions with remote keys, one-sided RDMA
// read/write, remote atomic operations (compare-and-swap, fetch-and-add)
// and two-sided send/receive message queues.
//
// The essential semantic the paper's designs depend on is preserved
// exactly: one-sided operations and remote atomics complete without any
// involvement of the remote host's CPU — they are executed by the (here:
// simulated) HCA against registered memory — while two-sided messages
// surface in a receive queue that a remote process must service. This is
// what makes RDMA-based services resilient to remote load, and it is the
// property all four of the paper's subsystems exploit.
package verbs

import (
	"encoding/binary"
	"fmt"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// RemoteAddr names a registered memory region on some node.
type RemoteAddr struct {
	Node int
	Key  uint32
}

// Message is a two-sided send/recv payload. Messages produced by the
// pooled send paths carry their buffer's home pool; the receiver returns
// the payload with Release once decoded (see pool.go for the ownership
// contract).
type Message struct {
	From    int
	Service string
	Data    []byte

	pool *bufPool
}

// OpError reports a failed verbs operation.
type OpError struct {
	Op     string
	Target RemoteAddr
	Reason string
}

func (e *OpError) Error() string {
	return fmt.Sprintf("verbs: %s on node %d key %d: %s", e.Op, e.Target.Node, e.Target.Key, e.Reason)
}

// Network is the verbs-capable interconnect: a fabric plus the device
// registry that lets a requester's (simulated) HCA reach a target's
// registered memory.
type Network struct {
	Env *sim.Env
	Fab *fabric.Fabric

	// devs is the device registry indexed by node ID, nil where no node
	// attached: IDs are small but need not be contiguous. Every datapath
	// resolves its target through dev.
	devs []*Device

	// tc is the connection-management policy (see transport.go);
	// zero-value is the classic fully-connected RC-per-pair layout.
	tc TransportConfig

	// flt is the fault injector active on the environment, nil for a
	// healthy run. It is cached here (and refreshed on Attach) so every
	// datapath check is a single pointer load.
	flt    *faults.Injector
	hooked bool
}

// NewNetwork creates a verbs network over a fresh fabric with params p.
// If a fault plan was installed on env (faults.Install) before any node
// attaches, the network propagates crashes and link faults with verbs
// semantics; see the Fault model section of DESIGN.md.
func NewNetwork(env *sim.Env, p fabric.Params) *Network {
	return NewNetworkWith(env, p, TransportConfig{})
}

// NewNetworkWith is NewNetwork with an explicit transport configuration:
// the default fully-connected RC-per-pair layout, or the pooled hybrid
// whose per-node connection state stays O(pool) in cluster size (see
// transport.go).
func NewNetworkWith(env *sim.Env, p fabric.Params, tc TransportConfig) *Network {
	nw := &Network{Env: env, Fab: fabric.New(env, p), tc: tc.withDefaults()}
	nw.hookFaults()
	return nw
}

// hookFaults caches the environment's injector and subscribes the
// network's crash handler, once.
func (nw *Network) hookFaults() {
	if nw.hooked {
		return
	}
	if nw.flt = nw.Fab.Faults(); nw.flt == nil {
		return
	}
	nw.hooked = true
	nw.flt.OnCrash(nw.nodeCrashed)
}

// nodeCrashed runs in scheduler context the instant a node's crash event
// fires: the node's registered memory is zeroed (a restart comes back
// with cold memory).
func (nw *Network) nodeCrashed(node int) {
	d := nw.dev(node)
	if d != nil {
		for _, mr := range d.mrs {
			if mr != nil {
				clear(mr.buf)
			}
		}
	}
	// Connection state: every survivor tears down its transport to the
	// crashed node (freeing the pool slot in pooled mode), and the crashed
	// HCA itself comes back cold. The per-device teardowns commute.
	for id, dd := range nw.devs {
		if dd != nil && id != node {
			dd.dropPeer(node)
		}
	}
	if d != nil {
		d.resetConns()
	}
}

// Params returns the fabric cost model.
func (nw *Network) Params() fabric.Params { return nw.Fab.P }

// Attach creates (or returns) the verbs device of a node.
func (nw *Network) Attach(node *cluster.Node) *Device {
	if d := nw.dev(node.ID); d != nil {
		return d
	}
	nw.hookFaults()
	d := &Device{
		nw:    nw,
		Node:  node,
		nic:   nw.Fab.Attach(node),
		mrs:   []*MR{nil}, // rkey 0 is never issued
		recvq: map[string]*sim.Chan[Message]{},
		conns: map[int]*conn{},
	}
	if r := trace.Of(nw.Env); r != nil {
		d.tr = r
		d.ts = r.Device(node.ID)
	}
	d.deliverSendFn = func() { d.deliver(&d.sendDelq) }
	d.deliverTCPFn = func() { d.deliver(&d.tcpDelq) }
	for len(nw.devs) <= node.ID {
		nw.devs = append(nw.devs, nil)
	}
	nw.devs[node.ID] = d
	return d
}

// Device returns the device of the node with the given ID, or nil.
func (nw *Network) Device(nodeID int) *Device { return nw.dev(nodeID) }

// dev is the one bounds-checked registry access: nil for a negative ID,
// a hole or an ID past the last attached node.
func (nw *Network) dev(id int) *Device {
	if uint(id) < uint(len(nw.devs)) {
		return nw.devs[id]
	}
	return nil
}

// Device is a node's (simulated) host channel adapter.
type Device struct {
	nw   *Network
	Node *cluster.Node
	nic  *fabric.NIC

	// mrs is indexed by rkey. Keys are issued from 1 in registration
	// order and never reused; Deregister leaves a nil slot, so a stale
	// key keeps failing. One pointer per registration ever made.
	mrs   []*MR
	recvq map[string]*sim.Chan[Message]

	// Counters for instrumentation and tests.
	Reads, Writes, Atomics, Sends int64

	// tr/ts publish into the env's trace registry; nil when untraced, so
	// the fast path is one pointer comparison per operation.
	tr *trace.Registry
	ts *trace.DeviceStats

	// Datapath pools: payload buffers, event-chain records and pending
	// two-sided deliveries (see pool.go and chain.go). The deliver
	// closures are bound once at Attach.
	pool      bufPool
	wrFree    []*workReq
	batchFree []*postBatch
	sendDelq  sim.Queue[sendDelivery]
	tcpDelq   sim.Queue[sendDelivery]

	deliverSendFn func()
	deliverTCPFn  func()

	// Transport-layer connection state (see transport.go): lazily
	// established per-peer records, the pooled-mode LRU and promotion
	// sketch, and memory/ops accounting. conns is the record store;
	// linked is the datapath's membership test over it — bit p is set
	// iff conns holds a record (initiator or mirror) for peer p — and
	// nconns its resident count. Only link and unlink change the three.
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

// NIC returns the device's network interface.
func (d *Device) NIC() *fabric.NIC { return d.nic }

// Params returns the fabric cost model the device operates under.
func (d *Device) Params() fabric.Params { return d.nw.Fab.P }

// Env returns the simulation environment.
func (d *Device) Env() *sim.Env { return d.nw.Env }

// MR is a registered memory region.
type MR struct {
	dev *Device
	buf []byte
	key uint32
}

// Register registers buf with the HCA and returns its memory region. The
// calling process pays the registration (pinning) cost.
func (d *Device) Register(p *sim.Proc, buf []byte) *MR {
	cost := d.nw.Fab.P.RegisterTime(len(buf))
	p.Sleep(cost)
	if d.tr != nil {
		d.tr.RecordOp(trace.OpRegister, 0, cost)
	}
	return d.registerFree(buf)
}

// registerFree registers without charging time; used at model setup.
func (d *Device) registerFree(buf []byte) *MR {
	mr := &MR{dev: d, buf: buf, key: uint32(len(d.mrs))}
	d.mrs = append(d.mrs, mr)
	return mr
}

// RegisterAtSetup registers buf without charging simulation time. Use it
// while constructing a model, before the clock starts mattering.
func (d *Device) RegisterAtSetup(buf []byte) *MR { return d.registerFree(buf) }

// Deregister removes the region from the device.
func (mr *MR) Deregister() { mr.dev.mrs[mr.key] = nil }

// Bytes returns the underlying buffer (local access).
func (mr *MR) Bytes() []byte { return mr.buf }

// Len returns the region length.
func (mr *MR) Len() int { return len(mr.buf) }

// Addr returns the remote address other nodes use to reach this region.
func (mr *MR) Addr() RemoteAddr { return RemoteAddr{Node: mr.dev.Node.ID, Key: mr.key} }

// pathError reports why a one-sided operation from this device to the
// target cannot proceed right now: the local HCA is dead, or the target
// is crashed/partitioned away. Nil on a healthy run or healthy path.
func (d *Device) pathError(op string, r RemoteAddr) error {
	f := d.nw.flt
	if f == nil {
		return nil
	}
	if f.Down(d.Node.ID) {
		return &OpError{Op: op, Target: r, Reason: "local device down"}
	}
	if !f.Reachable(d.Node.ID, r.Node) {
		return &OpError{Op: op, Target: r, Reason: "peer unreachable"}
	}
	return nil
}

// lookup resolves a remote address to the target region.
func (nw *Network) lookup(op string, r RemoteAddr) (*MR, *OpError) {
	d := nw.dev(r.Node)
	if d == nil {
		return nil, &OpError{Op: op, Target: r, Reason: "no such node"}
	}
	if uint(r.Key) < uint(len(d.mrs)) {
		if mr := d.mrs[r.Key]; mr != nil {
			return mr, nil
		}
	}
	return nil, &OpError{Op: op, Target: r, Reason: "invalid rkey"}
}

// Read performs a one-sided RDMA read of len(dst) bytes from the remote
// region at byte offset off into dst. The remote CPU is not involved. The
// call blocks the issuing process for the full round trip; the remote
// memory is sampled when the response is generated at the target, so a
// concurrent remote write ordered before that instant is observed.
func (d *Device) Read(p *sim.Proc, dst []byte, r RemoteAddr, off int) error {
	_, err := d.issue(p, d.post(nil, 0, wrRead, r, off, dst, 0, 0))
	return err
}

// Write performs a one-sided RDMA write of src into the remote region at
// byte offset off. The remote CPU is not involved. The call blocks until
// the data is placed in remote memory; a target or issuer lost while the
// write was in flight fails the op instead of placing the data.
func (d *Device) Write(p *sim.Proc, r RemoteAddr, off int, src []byte) error {
	_, err := d.issue(p, d.post(nil, 0, wrWrite, r, off, src, 0, 0))
	return err
}

// CompareSwap atomically compares the 64-bit word at the remote offset
// with compare and, if equal, stores swap. It returns the previous value;
// the operation succeeded iff the return equals compare. The caller
// blocks for the atomic round trip; the target HCA applies the operation
// at the halfway point.
func (d *Device) CompareSwap(p *sim.Proc, r RemoteAddr, off int, compare, swap uint64) (uint64, error) {
	return d.issue(p, d.post(nil, 0, wrCAS, r, off, nil, compare, swap))
}

// FetchAdd atomically adds delta to the 64-bit word at the remote offset
// and returns the previous value.
func (d *Device) FetchAdd(p *sim.Proc, r RemoteAddr, off int, delta uint64) (uint64, error) {
	return d.issue(p, d.post(nil, 0, wrFAA, r, off, nil, 0, delta))
}

// queue returns (creating if needed) the named receive queue.
func (d *Device) queue(service string) *sim.Chan[Message] {
	q, ok := d.recvq[service]
	if !ok {
		q = sim.NewChan[Message](d.nw.Env, fmt.Sprintf("%s/rq/%s", d.Node.Name, service), 1024)
		d.recvq[service] = q
	}
	return q
}

// Send transmits a two-sided message to the named service queue on the
// destination node. It blocks until the data is on the wire (local
// completion); delivery happens one base latency later without remote CPU
// involvement — processing cost is up to the receiving process. The data
// is copied into a pooled buffer; the receiver may return it with
// Message.Release.
func (d *Device) Send(p *sim.Proc, dstNode int, service string, data []byte) error {
	buf := d.pool.getBuf(len(data))
	copy(buf, data)
	return d.SendBuf(p, dstNode, service, buf)
}

// SendBuf is Send for a payload the caller obtained from GetBuf (or is
// otherwise done with): ownership transfers to the receiver without a
// copy, and the receiver returns the buffer to this device's pool with
// Message.Release. Together with GetBuf it makes a steady-state
// messaging loop allocation-free.
func (d *Device) SendBuf(p *sim.Proc, dstNode int, service string, buf []byte) error {
	dst := d.nw.dev(dstNode)
	if dst == nil {
		return &OpError{Op: "send", Target: RemoteAddr{Node: dstNode}, Reason: "no such node"}
	}
	if f := d.nw.flt; f != nil && f.Down(d.Node.ID) {
		d.pool.putBuf(buf)
		return &OpError{Op: "send", Target: RemoteAddr{Node: dstNode}, Reason: "local device down"}
	}
	d.Sends++
	pp := d.nw.Fab.P
	start := d.nw.Env.Now()
	d.nic.AcquireTx(p, pp.IBMsgTxTime(len(buf))+d.connCost(dstNode))
	if d.ts != nil {
		lat := time.Duration(d.nw.Env.Now() - start)
		d.ts.Send.Record(len(buf), lat)
		d.tr.RecordOp(trace.OpSend, pp.IBSendLatency+pp.IBMsgTxTime(len(buf)), 0)
		d.tr.Emit("verbs", "send", d.Node.ID, len(buf), lat)
	}
	if f := d.nw.flt; f != nil && f.Faulted(d.Node.ID, dstNode) {
		// Kept out of line so the healthy fast path stays free of the
		// captured-closure escape this branch needs.
		d.deliverFaulted(f, dst.queue(service), service, buf, dstNode, pp.IBSendLatency)
		return nil
	}
	d.sendDelq.Push(sendDelivery{
		q:    dst.queue(service),
		msg:  Message{From: d.Node.ID, Service: service, Data: buf, pool: &d.pool},
		from: d.Node.ID,
		to:   dstNode,
	})
	d.nw.Env.After(pp.IBSendLatency, d.deliverSendFn)
	return nil
}

// deliverFaulted is the messaging slow path for links with an active
// fault: sends are fire-and-forget datagrams — local completion already
// happened — so an unreachable peer or a loss roll silently eats the
// message, and added per-link delay takes a captured closure around the
// constant-latency delivery FIFO (whose pop-order argument only holds
// when every delivery shares one latency).
func (d *Device) deliverFaulted(f *faults.Injector, q *sim.Chan[Message], service string, buf []byte, dstNode int, base time.Duration) {
	if !f.Reachable(d.Node.ID, dstNode) {
		f.NoteDrop()
		d.pool.putBuf(buf)
		return
	}
	if f.DropMsg(d.Node.ID, dstNode) {
		d.pool.putBuf(buf)
		return
	}
	xtra := f.LinkDelay(d.Node.ID, dstNode)
	if xtra > 0 {
		f.NoteDelay()
	}
	msg := Message{From: d.Node.ID, Service: service, Data: buf, pool: &d.pool}
	from, to := d.Node.ID, dstNode
	d.nw.Env.After(base+xtra, func() {
		if d.lostInFlight(from, to) {
			msg.Release()
			return
		}
		q.PostSend(msg)
	})
}

// PostSendAt is a scheduler-context variant of Send for protocol agents
// that react inside timer callbacks: the message is delivered after the
// base send latency plus the full message transmit time (the same
// IBMsgTxTime cost model Send charges), without modelling transmit
// contention. Data is copied.
func (d *Device) PostSendAt(dstNode int, service string, data []byte) error {
	dst := d.nw.dev(dstNode)
	if dst == nil {
		return &OpError{Op: "send", Target: RemoteAddr{Node: dstNode}, Reason: "no such node"}
	}
	var xtra time.Duration
	if f := d.nw.flt; f != nil {
		if f.Down(d.Node.ID) {
			return &OpError{Op: "send", Target: RemoteAddr{Node: dstNode}, Reason: "local device down"}
		}
		// Fire-and-forget: an unreachable peer or a loss roll eats the
		// message without an error, like SendBuf.
		if !f.Reachable(d.Node.ID, dstNode) {
			f.NoteDrop()
			return nil
		}
		if f.DropMsg(d.Node.ID, dstNode) {
			return nil
		}
		if xtra = f.LinkDelay(d.Node.ID, dstNode); xtra > 0 {
			f.NoteDelay()
		}
	}
	d.Sends++
	pp := d.nw.Fab.P
	xtra += d.connCost(dstNode)
	buf := d.pool.getBuf(len(data))
	copy(buf, data)
	if d.ts != nil {
		d.ts.Send.Record(len(data), 0)
		d.tr.RecordOp(trace.OpSend, pp.IBSendLatency+pp.IBMsgTxTime(len(data)), 0)
		d.tr.Emit("verbs", "send", d.Node.ID, len(data), 0)
	}
	msg := Message{From: d.Node.ID, Service: service, Data: buf, pool: &d.pool}
	q := dst.queue(service)
	from, to := d.Node.ID, dstNode
	// Per-message delay (size-dependent), so this path keeps a captured
	// closure instead of the constant-latency delivery FIFO.
	d.nw.Env.After(pp.IBSendLatency+pp.IBMsgTxTime(len(data))+xtra, func() {
		if d.lostInFlight(from, to) {
			msg.Release()
			return
		}
		q.PostSend(msg)
	})
	return nil
}

// Recv blocks until a message arrives on the named service queue.
func (d *Device) Recv(p *sim.Proc, service string) Message {
	msg, _ := d.queue(service).Recv(p)
	return msg
}

// Uint64At reads the 64-bit little-endian word at off in a local region.
func (mr *MR) Uint64At(off int) uint64 { return binary.LittleEndian.Uint64(mr.buf[off:]) }

// PutUint64At stores a 64-bit little-endian word at off in a local region
// (a local, instantaneous store — the home node updating its own word).
func (mr *MR) PutUint64At(off int, v uint64) { binary.LittleEndian.PutUint64(mr.buf[off:], v) }
