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
	From int
	Data []byte

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
		nw:   nw,
		Node: node,
		nic:  nw.Fab.Attach(node),
		mrs:  []*MR{nil}, // rkey 0 is never issued
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
	mrs []*MR

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
	sendFree  []*sendReq
	batchFree []*postBatch
	sendDelq  sim.Queue[sendDelivery]
	tcpDelq   sim.Queue[sendDelivery]

	deliverSendFn func()
	deliverTCPFn  func()

	connState // see transport.go
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

// RecvQueue is one service's receive queue on a device, bound once with
// Device.Bind or Device.BindHandler. Senders address the queue itself,
// so a send needs no lookup; the service's own processes receive from a
// bound queue, and a handler queue's function takes each message.
type RecvQueue struct {
	dev *Device
	ch  *sim.Chan[Message]
	// fn, when set, receives messages instead of ch (BindHandler).
	fn func(Message)
}

// Bind creates the device's receive queue for a service. A service binds
// each of its queues once, when it is built, and hands them to its
// senders; binding a name again makes a second, separate queue.
func (d *Device) Bind(service string) *RecvQueue {
	return &RecvQueue{dev: d, ch: sim.NewChan[Message](d.nw.Env, d.Node.Name+"/rq/"+service)}
}

// BindHandler creates a receive queue on the device that queues
// nothing: each message is passed to fn at its delivery instant, in
// scheduler context — so fn must not block, and it may send (with
// SendAsync) or start timers. A message dropped in flight never reaches
// fn. Recv does not apply to such a queue.
func (d *Device) BindHandler(fn func(Message)) *RecvQueue { return &RecvQueue{dev: d, fn: fn} }

// Recv blocks until a message arrives on the queue.
func (q *RecvQueue) Recv(p *sim.Proc) Message {
	msg, _ := q.ch.Recv(p)
	return msg
}

// post hands a delivered message to the queue's consumer.
func (q *RecvQueue) post(m Message) {
	if q.fn != nil {
		q.fn(m)
		return
	}
	q.ch.Send(m)
}

// Send transmits a two-sided message to a receive queue, normally on
// another node. It blocks until the data is on the wire (local
// completion); delivery happens one base latency later without remote CPU
// involvement — processing cost is up to the receiving process. The data
// is copied into a pooled buffer; the receiver may return it with
// Message.Release.
func (d *Device) Send(p *sim.Proc, q *RecvQueue, data []byte) error {
	buf := d.pool.getBuf(len(data))
	copy(buf, data)
	return d.SendBuf(p, q, buf)
}

// SendBuf is Send for a payload the caller obtained from GetBuf (or is
// otherwise done with): ownership transfers to the receiver without a
// copy, and the receiver returns the buffer to this device's pool with
// Message.Release. Together with GetBuf it makes a steady-state
// messaging loop allocation-free.
func (d *Device) SendBuf(p *sim.Proc, q *RecvQueue, buf []byte) error {
	ser, err := d.beginSend(q, buf)
	if err != nil {
		return err
	}
	start := d.nw.Env.Now()
	d.nic.AcquireTx(p, ser)
	d.sent(q, buf, start, false)
	return nil
}

// SendAsync is SendBuf from callback context: the send holds this
// device's Tx engine in FIFO order with every other transmit, then
// delivers exactly as SendBuf does. It returns at once; the buffer
// belongs to the send from the call on. done, which may be nil, runs
// right after the message is handed to the fabric — the instant a
// blocking SendBuf would return. A send that fails never runs it.
func (d *Device) SendAsync(q *RecvQueue, buf []byte, done func()) error {
	ser, err := d.beginSend(q, buf)
	if err != nil {
		return err
	}
	s := d.getSendReq()
	s.q, s.buf, s.start, s.then = q, buf, d.nw.Env.Now(), done
	d.nic.TransmitAsync(ser, nil, s.doneFn)
	return nil
}

// beginSend is the pre-transmit half of an IB send: a dead local device
// fails it and takes the buffer back; otherwise it counts the send and
// returns how long it holds the Tx engine, connection setup included.
func (d *Device) beginSend(q *RecvQueue, buf []byte) (time.Duration, error) {
	to := q.dev.Node.ID
	if f := d.nw.flt; f != nil && f.Down(d.Node.ID) {
		d.pool.putBuf(buf)
		return 0, &OpError{Op: "send", Target: RemoteAddr{Node: to}, Reason: "local device down"}
	}
	d.Sends++
	return d.nw.Fab.P.IBMsgTxTime(len(buf)) + d.connCost(to), nil
}

// sent is the post-transmit half of every two-sided send, whichever
// entry held the Tx engine: record an IB send in the trace, then hand the
// message to the fabric — the delivery FIFO of its latency class on a
// healthy link, the faulted-link slow path otherwise.
func (d *Device) sent(q *RecvQueue, buf []byte, start sim.Time, tcp bool) {
	pp := d.nw.Fab.P
	lat, delq, deliverFn := pp.IBSendLatency, &d.sendDelq, d.deliverSendFn
	if tcp {
		// TCP deliveries get their own FIFO: the constant-delay pop-in-
		// push-order argument only holds per latency constant.
		lat, delq, deliverFn = pp.TCPLatency, &d.tcpDelq, d.deliverTCPFn
	} else if d.ts != nil {
		took := time.Duration(d.nw.Env.Now() - start)
		d.ts.Send.Record(len(buf), took)
		d.tr.RecordOp(trace.OpSend, pp.IBSendLatency+pp.IBMsgTxTime(len(buf)), 0)
		d.tr.Emit("verbs", "send", d.Node.ID, len(buf), took)
	}
	msg := Message{From: d.Node.ID, Data: buf, pool: &d.pool}
	if f := d.nw.flt; f != nil && f.Faulted(d.Node.ID, q.dev.Node.ID) {
		// Kept out of line so the healthy fast path stays free of the
		// captured-closure escape this branch needs.
		d.deliverFaulted(f, q, msg, lat)
		return
	}
	delq.Push(sendDelivery{q: q, msg: msg})
	d.nw.Env.After(lat, deliverFn)
}

// deliverFaulted is the messaging slow path for links with an active
// fault: sends are fire-and-forget datagrams — local completion already
// happened — so an unreachable peer or a loss roll silently eats the
// message, and added per-link delay takes a captured closure around the
// constant-latency delivery FIFO (whose pop-order argument only holds
// when every delivery shares one latency).
func (d *Device) deliverFaulted(f *faults.Injector, q *RecvQueue, msg Message, base time.Duration) {
	from, to := d.Node.ID, q.dev.Node.ID
	if !f.Reachable(from, to) {
		f.NoteDrop()
		msg.Release()
		return
	}
	if f.DropMsg(from, to) {
		msg.Release()
		return
	}
	xtra := f.LinkDelay(from, to)
	if xtra > 0 {
		f.NoteDelay()
	}
	m := msg // copied here so that a dropped message does not escape
	d.nw.Env.After(base+xtra, func() {
		if d.lostInFlight(from, to) {
			m.Release()
			return
		}
		q.post(m)
	})
}

// Uint64At reads the 64-bit little-endian word at off in a local region.
func (mr *MR) Uint64At(off int) uint64 { return binary.LittleEndian.Uint64(mr.buf[off:]) }

// PutUint64At stores a 64-bit little-endian word at off in a local region
// (a local, instantaneous store — the home node updating its own word).
func (mr *MR) PutUint64At(off int, v uint64) { binary.LittleEndian.PutUint64(mr.buf[off:], v) }
