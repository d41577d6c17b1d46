// Package dlm implements the paper's distributed lock management services
// in three designs, matching §4.2 and [Narravula et al., CCGrid'07]:
//
//   - SRSL — Send/Receive-based Server Locking: the traditional baseline.
//     Every lock and unlock is a two-sided message to the lock's home-node
//     server process, which maintains the wait queue and sends grants.
//
//   - DQNL — Distributed Queue-based Non-shared Locking [Devulapalli &
//     Wyckoff, ICPP'05]: a distributed MCS-style queue built from one-sided
//     compare-and-swap on a per-lock tail word at the home node. Fully
//     one-sided, but it supports only exclusive semantics: shared requests
//     are serialized through the same queue, so N concurrent readers pay N
//     sequential grant hand-offs.
//
//   - N-CoSED — Network-based Combined Shared/Exclusive Distributed
//     locking: the paper's design. Each lock is a 64-bit word at its home
//     node, the high 32 bits holding the exclusive-queue tail and the low
//     32 bits the shared-holder count. Shared lock/unlock are pure
//     fetch-and-add fast paths; exclusive lock is a compare-and-swap fast
//     path; contended hand-offs use short messages, and a cohort of shared
//     waiters is granted in one burst rather than one at a time.
//
// All three grant in FIFO order and never let a later request overtake a
// queued one: a reader that arrives while a writer waits queues behind
// it, and its TryLock fails. Queue is that discipline as a pure state
// machine; SRSL's home server runs it, and the one-sided designs reach
// the same order through their distributed queues.
//
// All three operate over the verbs layer, so their relative costs come out
// of the same fabric model the rest of the repository uses.
package dlm

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "shared"
	}
	return "exclusive"
}

// Kind selects a lock-manager design.
type Kind int

// The implemented designs.
const (
	SRSL Kind = iota
	DQNL
	NCoSED
)

func (k Kind) String() string {
	switch k {
	case SRSL:
		return "SRSL"
	case DQNL:
		return "DQNL"
	case NCoSED:
		return "N-CoSED"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ServerCPU is the home-server processing cost per SRSL message; the
// one-sided designs exist to avoid exactly this work.
const ServerCPU = 1500 * time.Nanosecond

// PollInterval is the local-memory polling granularity used by the
// one-sided designs when waiting for a peer's RDMA write to land.
const PollInterval = time.Microsecond

// Manager is a cluster-wide lock service of one design.
type Manager struct {
	Kind     Kind
	nw       *verbs.Network
	nodes    []*cluster.Node
	locks    int
	leaseTTL time.Duration

	clients    []Client // by node ID, nil where no node is
	recoveries int      // N-CoSED lease recoveries, summed over the home agents

	// SRSL and N-CoSED: every node's two receive queues, by node ID —
	// the home side's (requests to SRSL's server or N-CoSED's agent)
	// and the client side's (grants and successor announcements).
	homeQ, grantQ []*verbs.RecvQueue
}

// Client is a node's handle to the lock service. At most one outstanding
// request per (client, lock) is supported, matching the paper's usage.
//
// A transport failure is an error, not a panic: a one-sided operation or
// a message send that fails (the home or a peer crashed or partitioned
// away, the local device down) ends the call with that error, at the
// instant the operation reports it — a one-sided operation in flight no
// later than its nominal completion. The call's protocol state is left
// where the failure found it; with leases on, the home agent repairs a
// lock whose holder died. Sends are datagrams: one the fabric drops after
// it left is no error, and a request or grant lost that way leaves the
// caller waiting. The home side drops a grant it cannot send.
type Client interface {
	// Lock blocks until the lock is held in the given mode.
	Lock(p *sim.Proc, lock int, mode Mode) error
	// TryLock attempts a non-blocking acquire, reporting success. A
	// failed attempt leaves no queue state behind.
	TryLock(p *sim.Proc, lock int, mode Mode) (bool, error)
	// Unlock releases a held lock.
	Unlock(p *sim.Proc, lock int, mode Mode) error
}

// DefaultLocks is the lock-namespace size a zero Options.NumLocks
// selects.
const DefaultLocks = 64

// Options configures a lock manager.
type Options struct {
	// Kind selects the design: SRSL, DQNL or N-CoSED. The zero value
	// is SRSL.
	Kind Kind
	// NumLocks bounds the lock namespace (0 means DefaultLocks).
	NumLocks int
	// LeaseTTL enables lease-based exclusive locks on N-CoSED: holders
	// announce themselves to the lock's home agent, and a holder that
	// crashes (under an installed fault plan) is detected within one
	// lease interval — the home agent repairs the lock word and
	// re-grants the queue. Zero (the default) disables leases and keeps
	// the protocol byte-identical to the lease-free implementation.
	LeaseTTL time.Duration
}

// New builds a lock manager over nodes attached to the verbs network,
// in the framework's canonical (nw, nodes, opts) constructor form. Lock
// l is homed on nodes[l % len(nodes)].
func New(nw *verbs.Network, nodes []*cluster.Node, opts Options) *Manager {
	if opts.NumLocks <= 0 {
		opts.NumLocks = DefaultLocks
	}
	kind := opts.Kind
	n := 0
	for _, node := range nodes {
		n = max(n, node.ID+1)
	}
	m := &Manager{Kind: kind, nw: nw, nodes: nodes, locks: opts.NumLocks,
		leaseTTL: opts.LeaseTTL, clients: make([]Client, n)}
	switch kind {
	case SRSL:
		newSRSL(m)
	case DQNL:
		newDQNL(m)
	case NCoSED:
		newNCoSED(m)
	default:
		panic("dlm: unknown kind")
	}
	return m
}

// Client returns the handle of the given node. It panics if the node was
// not part of the manager's construction.
func (m *Manager) Client(nodeID int) Client {
	if nodeID < 0 || nodeID >= len(m.clients) || m.clients[nodeID] == nil {
		panic(fmt.Sprintf("dlm: node %d has no client", nodeID))
	}
	return m.clients[nodeID]
}

// LeaseRecoveries returns how many crashed-holder recoveries the home
// agents have performed so far (N-CoSED with leases only).
func (m *Manager) LeaseRecoveries() int { return m.recoveries }

// home returns the home node index (into m.nodes) of a lock.
func (m *Manager) home(lock int) int { return lock % len(m.nodes) }

// homeQueue returns the home-side receive queue of a lock's home node.
func (m *Manager) homeQueue(lock int) *verbs.RecvQueue { return m.homeQ[m.nodes[m.home(lock)].ID] }

// bind binds every node's home-side and client-side receive queue.
func (m *Manager) bind(homeSvc, grantSvc string) {
	m.homeQ = make([]*verbs.RecvQueue, len(m.clients))
	m.grantQ = make([]*verbs.RecvQueue, len(m.clients))
	for _, node := range m.nodes {
		dev := m.nw.Attach(node)
		m.homeQ[node.ID], m.grantQ[node.ID] = dev.Bind(homeSvc), dev.Bind(grantSvc)
	}
}

// checkLock panics on an out-of-range lock ID (a programming error).
func (m *Manager) checkLock(lock int) {
	if lock < 0 || lock >= m.locks {
		panic(fmt.Sprintf("dlm: lock %d out of range [0,%d)", lock, m.locks))
	}
}

// Wire message layout: op(1) lock(4) from(4) arg(4), little-endian.
const msgSize = 13

// Message opcodes.
const (
	opLockReq uint8 = iota + 1
	opUnlockReq
	opGrant
	opEnqueue        // N-CoSED: "I am queued directly behind you"
	opSharedRegister // N-CoSED: "notify me when the exclusive chain drains"
	opWaitDrain      // N-CoSED: "grant me when the shared holders drain"
	opTryLockReq     // SRSL: non-blocking acquire attempt
	opHolderNotify   // N-CoSED leases: "I now hold the lock exclusively"
	opHolderRelease  // N-CoSED leases: "I freed the lock with a single CAS"
	opEnqueueCC      // N-CoSED leases: copy of opEnqueue to the home (arg = predecessor)
)

type wire struct {
	op   uint8
	lock int
	from int
	arg  int
}

func (w wire) encodeInto(b []byte) {
	b[0] = w.op
	binary.LittleEndian.PutUint32(b[1:], uint32(w.lock))
	binary.LittleEndian.PutUint32(b[5:], uint32(w.from))
	binary.LittleEndian.PutUint32(b[9:], uint32(w.arg))
}

// sendWire transmits one protocol message through the device's pooled
// buffers: encode into a pool buffer, hand ownership to the receiver
// (which releases it after decoding), no per-message allocation.
func sendWire(p *sim.Proc, dev *verbs.Device, q *verbs.RecvQueue, w wire) error {
	b := dev.GetBuf(msgSize)
	w.encodeInto(b)
	return dev.SendBuf(p, q, b)
}

func decodeWire(b []byte) wire {
	if len(b) < msgSize {
		return wire{}
	}
	return wire{
		op:   b[0],
		lock: int(binary.LittleEndian.Uint32(b[1:])),
		from: int(binary.LittleEndian.Uint32(b[5:])),
		arg:  int(binary.LittleEndian.Uint32(b[9:])),
	}
}

// lockRec is everything one client keeps about one lock: the grant its
// request waits on and, in N-CoSED, its place in the exclusive chain. On
// the lock's home node the record also holds the home side: SRSL's
// server queue, or N-CoSED's pending agent work and lease. Records are
// allocated with the manager, one per lock.
type lockRec struct {
	// wait is what the lock's one outstanding call parks on: a request
	// for its grant or, in N-CoSED, an exclusive Unlock for its
	// successor's announcement (the holder has no request outstanding).
	// It is re-armed with Reset: the one-outstanding-request rule
	// guarantees the previous waiter consumed it.
	wait  *sim.Future[int]
	armed bool // a request waits for a grant

	// N-CoSED: the successor that announced itself (node ID + 1, 0 if
	// none), or succWait: an Unlock waits for one.
	succ     int
	succWait bool

	// Home side.
	queue         Queue[int]   // SRSL: holders and waiters, by node ID
	pendingShared []int        // N-CoSED: node IDs awaiting the chain's end
	pendingDrain  int          // N-CoSED: node ID + 1 awaiting the shared drain, 0 if none
	polling       bool         // N-CoSED: the home poller runs
	pollName      string       // N-CoSED: the poller's process name
	lease         *ncosedLease // N-CoSED with LeaseTTL > 0
}

// lockTable is a client's records, indexed by lock ID. Its name,
// "<node>/<design>", prefixes its futures' names and its panics.
type lockTable struct {
	name string
	recs []lockRec
}

func newLockTable(env *sim.Env, name string, locks int) lockTable {
	t := lockTable{name: name, recs: make([]lockRec, locks)}
	for l := range t.recs {
		t.recs[l].wait = sim.NewFuture[int](env, name+"/lock"+strconv.Itoa(l))
	}
	return t
}

// request arms the grant of w.lock, sends w to the queue q and
// parks until the grant arrives, returning its arg. A send that fails
// disarms the grant and returns the error: the request never left. A
// second request on an armed lock panics (protocol bug).
func (t *lockTable) request(p *sim.Proc, dev *verbs.Device, q *verbs.RecvQueue, w wire) (int, error) {
	r := &t.recs[w.lock]
	if r.armed {
		panic(fmt.Sprintf("dlm: %s: double outstanding request on lock %d", t.name, w.lock))
	}
	fut := r.rearm()
	r.armed = true
	if err := sendWire(p, dev, q, w); err != nil {
		r.armed = false
		return 0, err
	}
	return fut.Wait(p), nil
}

// grant resolves the grant of a lock; one with no waiter panics.
func (t *lockTable) grant(lock, arg int) {
	r := &t.recs[lock]
	if !r.armed {
		panic(fmt.Sprintf("dlm: %s: grant for lock %d with no waiter", t.name, lock))
	}
	r.armed = false
	r.wait.Resolve(arg)
}

// rearm returns the record's wait future, reset if it was resolved.
func (r *lockRec) rearm() *sim.Future[int] {
	if r.wait.Done() {
		r.wait.Reset()
	}
	return r.wait
}
