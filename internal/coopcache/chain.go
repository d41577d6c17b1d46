package coopcache

import (
	"math/bits"
	"time"

	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// reqChain runs one client request through the proxy pipeline — HTTP
// admission CPU, scheme lookup (local hit, directory-guided remote
// fetch, or deduplicated origin fetch), cache maintenance and response
// egress — as an event chain: every stage boundary is a scheduler
// callback at the exact instant the process-per-stage pipeline parked
// and resumed, and the client process itself parks exactly once, from
// request issue to the last response byte on the wire. Virtual-time
// outcomes are identical (the Quick catalogue golden pins them); only
// the number of goroutine switches per request changes.
//
// Records recycle through the DataCenter's free list with their step
// callbacks bound once, so the steady-state request loop allocates
// nothing.
type reqChain struct {
	dc    *DataCenter
	p     *sim.Proc
	px    *cacheNode
	doc   int
	size  int64
	depth int
	out   outcome

	holder  *cacheNode
	target  *cacheNode
	fut     *sim.Future[int]
	evicted []int // held across the directory batch wire stall

	// Step callbacks, bound once per record.
	cpuDoneFn     func()
	dirDoneFn     func()
	fetchMidFn    func()
	fetchTxDoneFn func()
	fetchEndFn    func()
	replicaFn     func()
	retryFn       func(int)
	backendDoneFn func()
	insTxDoneFn   func()
	insPlacedFn   func()
	dirWireFn     func()
	copyDoneFn    func()
	egCPUDoneFn   func()
	egTxDoneFn    func()
}

// reasonServe is the client's single park reason per request.
const reasonServe = "coopcache request"

// getReq returns a request chain record with its callbacks bound.
func (dc *DataCenter) getReq() *reqChain {
	if n := len(dc.reqFree); n > 0 {
		rc := dc.reqFree[n-1]
		dc.reqFree = dc.reqFree[:n-1]
		return rc
	}
	dc.reqMade++
	rc := &reqChain{dc: dc}
	rc.cpuDoneFn = rc.cpuDone
	rc.dirDoneFn = func() { rc.dirArrived(true) }
	rc.fetchMidFn = rc.fetchMid
	rc.fetchTxDoneFn = rc.fetchTxDone
	rc.fetchEndFn = rc.fetchEnd
	rc.replicaFn = func() {
		rc.px.replica.Put(rc.doc, rc.size)
		rc.egress()
	}
	rc.retryFn = func(int) {
		rc.depth = 1
		rc.lookupStep()
	}
	rc.backendDoneFn = rc.backendDone
	rc.insTxDoneFn = rc.insTxDone
	rc.insPlacedFn = rc.placed
	rc.dirWireFn = func() {
		rc.dirEntries(rc.evicted)
		rc.evicted = nil
		rc.insertDone()
	}
	rc.copyDoneFn = rc.copyDone
	rc.egCPUDoneFn = rc.egCPUDone
	rc.egTxDoneFn = func() { rc.dc.env.Continue(rc.p) }
	return rc
}

// putReq recycles a finished request chain record.
func (dc *DataCenter) putReq(rc *reqChain) {
	rc.p, rc.px, rc.holder, rc.target, rc.fut, rc.evicted = nil, nil, nil, nil, nil, nil
	dc.reqFree = append(dc.reqFree, rc)
}

// start begins the admission CPU burst (HTTP processing) at the current
// instant; the caller parks afterwards and is resumed by the chain at
// the egress-complete instant.
func (rc *reqChain) start() {
	rc.px.node.ExecBegin()
	rc.px.node.CPU().HoldAsync(1, RequestCPU, nil, rc.cpuDoneFn)
}

// cpuDone runs at the admission-burst release instant.
func (rc *reqChain) cpuDone() {
	rc.px.node.ExecDone()
	rc.lookupStep()
}

// lookupStep resolves the document under the scheme at the current
// instant, mirroring the lookup decision ladder stage for stage.
func (rc *reqChain) lookupStep() {
	dc, px := rc.dc, rc.px
	if dc.cfg.Scheme == HYBCC {
		px.freq[rc.doc]++
	}
	if px.cache.Get(rc.doc) || (px.replica != nil && px.replica.Get(rc.doc)) {
		// Local hit: charge the memory copy, then egress.
		rc.out = outLocal
		dc.env.After(dc.nw.Params().CopyTime(int(rc.size)), rc.copyDoneFn)
		return
	}
	if dc.cfg.Scheme != AC {
		// Directory read against the document's home shard: free when the
		// shard is local, a one-sided read otherwise.
		if dc.dirHome(rc.doc) != px {
			dc.env.After(dc.nw.Params().IBReadLatency, rc.dirDoneFn)
			return
		}
		rc.dirArrived(false)
		return
	}
	rc.missStep()
}

// dirArrived runs when the directory entry is available: at the issue
// instant for a local shard, one read RTT later for a remote one.
func (rc *reqChain) dirArrived(remote bool) {
	dc := rc.dc
	if remote && dc.tr != nil {
		dc.tr.RecordOp(trace.OpRDMARead, dc.nw.Params().IBReadLatency, 0)
	}
	// Lowest-ID holder other than the requester: the lowest set bit once
	// the requester's own bit is masked.
	self := rc.px.node.ID
	for w, word := range dc.dirHolders(rc.doc) {
		if w == self/64 {
			word &^= 1 << (self % 64)
		}
		if word == 0 {
			continue
		}
		if holder := dc.nodes[w*64+bits.TrailingZeros64(word)]; holder.cache.Get(rc.doc) {
			// Remote hit: one-sided RDMA read from the holder — request
			// half-RTT, response serialization on the holder's NIC,
			// response half-RTT.
			rc.holder = holder
			dc.env.After(dc.nw.Params().IBReadLatency/2, rc.fetchMidFn)
			return
		}
		break
	}
	rc.missStep()
}

// fetchMid runs when the read request reaches the holder: occupy the
// holder's transmit engine for the response serialization.
func (rc *reqChain) fetchMid() {
	rc.holder.dev.NIC().TransmitAsync(rc.dc.nw.Params().IBTxTime(int(rc.size)), nil, rc.fetchTxDoneFn)
}

// fetchTxDone runs when the response's last byte leaves the holder NIC.
func (rc *reqChain) fetchTxDone() {
	rc.dc.env.After(rc.dc.nw.Params().IBReadLatency/2, rc.fetchEndFn)
}

// fetchEnd runs when the response arrives back at the requester.
func (rc *reqChain) fetchEnd() {
	dc := rc.dc
	pp := dc.nw.Params()
	if dc.tr != nil {
		dc.tr.RecordOp(trace.OpRDMARead, pp.IBTxTime(int(rc.size))+pp.IBReadLatency, 0)
	}
	rc.out = outRemote
	switch {
	case dc.cfg.Scheme == BCC:
		// Duplicate locally for future requests.
		rc.insertStep(rc.px)
	case dc.cfg.Scheme == HYBCC && rc.size <= hybridThreshold && rc.px.freq[rc.doc] >= hybridHotCount:
		// Hybrid: this small document keeps getting requested here —
		// replicate it into the bounded replica area (a private copy; the
		// directory keeps pointing at the single authoritative copy).
		dc.env.After(pp.CopyTime(int(rc.size)), rc.replicaFn)
	default:
		rc.egress()
	}
}

// missStep handles a cluster-wide miss: wait behind a concurrent fetch
// of the same document, or fetch from the origin.
func (rc *reqChain) missStep() {
	dc := rc.dc
	if fut := dc.inflight[rc.doc]; fut != nil && rc.depth == 0 {
		fut.WaitAsync(rc.retryFn)
		return
	}
	rc.fut = dc.getFetchFuture()
	dc.inflight[rc.doc] = rc.fut
	dc.backend.HoldAsync(1, dc.nw.Params().BackendTime(int(rc.size)), nil, rc.backendDoneFn)
}

// backendDone runs when the origin fetch completes: place the document.
func (rc *reqChain) backendDone() {
	dc := rc.dc
	target := rc.px
	if dc.cfg.Scheme == MTACC || dc.cfg.Scheme == HYBCC {
		target = dc.placeMostFree(rc.px)
	}
	rc.insertStep(target)
}

// insertStep places the fetched document into target's cache, charging
// the one-sided RDMA push when the target is remote.
func (rc *reqChain) insertStep(target *cacheNode) {
	rc.target = target
	if target != rc.px {
		rc.px.dev.NIC().TransmitAsync(rc.dc.nw.Params().IBTxTime(int(rc.size)), nil, rc.insTxDoneFn)
		return
	}
	rc.placed()
}

// insTxDone runs when the push's last byte leaves the requester NIC.
func (rc *reqChain) insTxDone() {
	rc.dc.env.After(rc.dc.nw.Params().IBWriteLatency, rc.insPlacedFn)
}

// placed runs at the instant the document lands in the target's cache:
// record the push, update the cache, and post the doorbell-batched
// directory update (the add and the eviction removes charge a single
// combined wire stall for the remote-shard atomics — Sleep(a)+Sleep(b)
// == Sleep(a+b): nothing else observes the intermediate instant — while
// each op is still recorded individually).
func (rc *reqChain) placed() {
	dc := rc.dc
	pp := dc.nw.Params()
	if rc.target != rc.px && dc.tr != nil {
		dc.tr.RecordOp(trace.OpRDMAWrite, pp.IBTxTime(int(rc.size))+pp.IBWriteLatency, 0)
	}
	evicted := rc.target.cache.Put(rc.doc, rc.size)
	if dc.cfg.Scheme != AC {
		var wire time.Duration
		if dc.dirHome(rc.doc) != rc.px {
			wire += pp.IBAtomicLatency
			if dc.tr != nil {
				dc.tr.RecordOp(trace.OpRDMAAtomic, pp.IBAtomicLatency, 0)
			}
		}
		for _, v := range evicted {
			if dc.dirHome(v) != rc.px {
				wire += pp.IBAtomicLatency
				if dc.tr != nil {
					dc.tr.RecordOp(trace.OpRDMAAtomic, pp.IBAtomicLatency, 0)
				}
			}
		}
		if wire > 0 {
			rc.evicted = evicted
			dc.env.After(wire, rc.dirWireFn)
			return
		}
		rc.dirEntries(evicted)
	}
	rc.insertDone()
}

// dirEntries applies the directory mutations of an insert (pure state;
// the wire charge was issued by placed's batch): set the target's bit in
// the document's entry and clear it in each evicted document's.
func (rc *reqChain) dirEntries(evicted []int) {
	dc, id := rc.dc, rc.target.node.ID
	w, bit := id/64, uint64(1)<<(id%64)
	dc.dirHolders(rc.doc)[w] |= bit
	for _, v := range evicted {
		dc.dirHolders(v)[w] &^= bit
	}
}

// insertDone finishes an insert: a miss-path insert resolves the dedup
// future (waking concurrent requesters of the same document), a BCC
// duplicate goes straight to egress.
func (rc *reqChain) insertDone() {
	dc := rc.dc
	if rc.fut != nil {
		dc.inflight[rc.doc] = nil
		f := rc.fut
		rc.fut = nil
		f.Resolve(0)
		dc.putFetchFuture(f)
		rc.out = outMiss
	}
	rc.egress()
}

// copyDone runs when a local hit's memory copy completes; it records
// the copy and starts egress.
func (rc *reqChain) copyDone() {
	dc := rc.dc
	if dc.tr != nil {
		dc.tr.RecordOp(trace.OpCopy, 0, dc.nw.Params().CopyTime(int(rc.size)))
	}
	rc.egress()
}

// egress starts the response path to the client over the front-side
// network: a proxy core for the TCP send processing, then the wire.
func (rc *reqChain) egress() {
	rc.px.node.ExecBegin()
	rc.px.node.CPU().HoldAsync(1, rc.dc.nw.Params().TCPCPUTime(int(rc.size)), nil, rc.egCPUDoneFn)
}

// egCPUDone runs at the TCP CPU release instant: occupy the proxy NIC
// for the response serialization and hand the client back (egTxDoneFn)
// in the event that frees it, when the last byte is on the wire.
func (rc *reqChain) egCPUDone() {
	rc.px.node.ExecDone()
	rc.px.dev.NIC().TransmitAsync(rc.dc.nw.Params().TCPTxTime(int(rc.size)), nil, rc.egTxDoneFn)
}
