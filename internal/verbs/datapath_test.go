package verbs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// tracedNet is testNet with a trace registry attached before devices are
// created, so NIC/device stats are live.
func tracedNet(t testing.TB, n int) (*sim.Env, *Network, []*Device, *trace.Registry) {
	t.Helper()
	env := sim.NewEnv(1)
	reg := trace.NewRegistry()
	trace.AttachRegistry(env, reg)
	nw := NewNetwork(env, fabric.DefaultParams())
	devs := make([]*Device, n)
	for i := 0; i < n; i++ {
		node := cluster.NewNode(env, i, 4, 1<<30)
		devs[i] = nw.Attach(node)
	}
	return env, nw, devs, reg
}

// TestSendAsyncMatchesSend pins that the two entries of a send are one
// send, and the two kinds of receive queue one receive: on an idle
// engine a message started from a process (SendBuf) and one started from
// a callback (SendAsync) arrive at the same instant,
// IBMsgTxTime+IBSendLatency after the call, for every size, whether a
// process receives it (Bind, Recv) or a handler does (BindHandler); and
// SendAsync's done runs IBMsgTxTime after the call, the instant SendBuf
// returns. On a busy engine a callback send queues FIFO behind a process
// send on the same NIC and arrives one message transmit after it.
func TestSendAsyncMatchesSend(t *testing.T) {
	pp := fabric.DefaultParams()
	for _, n := range []int{8, 512, 2048, 1 << 16} {
		for _, async := range []bool{false, true} {
			for _, handler := range []bool{false, true} {
				env, _, devs := testNet(t, 2)
				var at, returned sim.Time
				var q *RecvQueue
				if handler {
					q = devs[1].BindHandler(func(m Message) {
						at = env.Now()
						m.Release()
					})
				} else {
					q = devs[1].Bind("svc")
					env.Go("rx", func(p *sim.Proc) {
						msg := q.Recv(p)
						at = p.Now()
						msg.Release()
					})
				}
				if async {
					env.At(0, func() {
						if err := devs[0].SendAsync(q, devs[0].GetBuf(n), func() { returned = env.Now() }); err != nil {
							t.Error(err)
						}
					})
				} else {
					env.Go("tx", func(p *sim.Proc) {
						if err := devs[0].SendBuf(p, q, devs[0].GetBuf(n)); err != nil {
							t.Error(err)
						}
						returned = p.Now()
					})
				}
				if err := env.Run(); err != nil {
					t.Fatal(err)
				}
				if want := sim.Time(0).Add(pp.IBMsgTxTime(n) + pp.IBSendLatency); at != want {
					t.Errorf("%d B, async %v, handler %v: arrives at %v, want IBMsgTxTime+IBSendLatency = %v", n, async, handler, at, want)
				}
				if want := sim.Time(0).Add(pp.IBMsgTxTime(n)); returned != want {
					t.Errorf("%d B, async %v: the send returns at %v, want IBMsgTxTime = %v", n, async, returned, want)
				}
			}
		}
	}

	// Busy engine: the process send holds the Tx engine first, the
	// callback send started at the same instant waits behind it.
	const n = 2048
	env, _, devs := testNet(t, 2)
	q := devs[1].Bind("svc")
	var got []string
	env.Go("rx", func(p *sim.Proc) {
		for range 2 {
			msg := q.Recv(p)
			got = append(got, fmt.Sprintf("%c@%v", msg.Data[0], p.Now()))
			msg.Release()
		}
	})
	env.Go("tx", func(p *sim.Proc) {
		b := devs[0].GetBuf(n)
		b[0] = 'p'
		env.At(0, func() {
			a := devs[0].GetBuf(n)
			a[0] = 'a'
			if err := devs[0].SendAsync(q, a, nil); err != nil {
				t.Error(err)
			}
		})
		if err := devs[0].SendBuf(p, q, b); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	tx := pp.IBMsgTxTime(n)
	want := []string{
		fmt.Sprintf("p@%v", sim.Time(0).Add(tx+pp.IBSendLatency)),
		fmt.Sprintf("a@%v", sim.Time(0).Add(2*tx+pp.IBSendLatency)),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("busy engine: arrivals %v, want %v (the callback send queued behind the process send)", got, want)
	}
	if devs[0].Sends != 2 {
		t.Errorf("Sends = %d, want 2", devs[0].Sends)
	}
}

// TestReadWriteTxAccountingUnified asserts that a read and a write of
// the same size produce identical occupancy accounting on the NIC that
// serialized them (the target's for reads, the issuer's for writes),
// including the stall taken when the engine is busy. The two cannot
// drift apart: neither accounts for itself. The NIC's transmit engine
// records every hold it grants (fabric.NewNIC installs NICStats.RecordTx
// on it), and a hold is the only way to occupy it.
func TestReadWriteTxAccountingUnified(t *testing.T) {
	const n = 4096
	env, nw, devs, reg := tracedNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 2*n))
	env.Go("client", func(p *sim.Proc) {
		if err := devs[0].Write(p, mr.Addr(), 0, make([]byte, n)); err != nil {
			t.Error(err)
		}
		if err := devs[0].Read(p, make([]byte, n), mr.Addr(), 0); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	wNIC, rNIC := reg.NIC(0), reg.NIC(1)
	if wNIC.TxOps != 1 || rNIC.TxOps != 1 {
		t.Fatalf("TxOps: writer NIC %d, target NIC %d, want 1 and 1", wNIC.TxOps, rNIC.TxOps)
	}
	if wNIC.TxBusy != rNIC.TxBusy || wNIC.TxBusy != nw.Params().IBTxTime(n) {
		t.Errorf("TxBusy: write %v, read %v, want both %v", wNIC.TxBusy, rNIC.TxBusy, nw.Params().IBTxTime(n))
	}

	// Contended reads: the second response stalls behind the first on
	// the target's Tx engine, and the stall is recorded there.
	env2, nw2, devs2, reg2 := tracedNet(t, 3)
	mr2 := devs2[2].RegisterAtSetup(make([]byte, n))
	for i := 0; i < 2; i++ {
		env2.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			if err := devs2[i].Read(p, make([]byte, n), mr2.Addr(), 0); err != nil {
				t.Error(err)
			}
		})
	}
	if err := env2.Run(); err != nil {
		t.Fatal(err)
	}
	tgt := reg2.NIC(2)
	ser := nw2.Params().IBTxTime(n)
	if tgt.TxOps != 2 || tgt.TxStallCount != 1 || tgt.TxStall != ser {
		t.Errorf("contended target NIC: ops=%d stalls=%d stall=%v, want 2/1/%v",
			tgt.TxOps, tgt.TxStallCount, tgt.TxStall, ser)
	}
}

// TestZeroLengthOps pins the edge case the chains must not break: a
// zero-byte read or write at the region boundary succeeds, costs exactly
// the base latency (no serialization), and still counts as an op.
func TestZeroLengthOps(t *testing.T) {
	env, nw, devs := testNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 64))
	pp := nw.Params()
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		if err := devs[0].Write(p, mr.Addr(), 64, nil); err != nil {
			t.Errorf("zero-length write at boundary: %v", err)
		}
		if got := time.Duration(p.Now() - start); got != pp.IBWriteLatency {
			t.Errorf("zero-length write took %v, want %v", got, pp.IBWriteLatency)
		}
		start = p.Now()
		if err := devs[0].Read(p, nil, mr.Addr(), 64); err != nil {
			t.Errorf("zero-length read at boundary: %v", err)
		}
		if got := time.Duration(p.Now() - start); got != pp.IBReadLatency {
			t.Errorf("zero-length read took %v, want %v", got, pp.IBReadLatency)
		}
		if err := devs[0].Write(p, mr.Addr(), 65, nil); err == nil {
			t.Error("zero-length write past the region succeeded")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if devs[0].Writes != 1 || devs[0].Reads != 1 {
		t.Errorf("counters: %d writes, %d reads, want 1 and 1", devs[0].Writes, devs[0].Reads)
	}
}

// TestCQSoftDepth pins the completion-queue depth semantics: depth bounds
// nothing, so completions beyond it are queued rather than dropped or
// deadlocked (the simulated HCA never loses a completion), and a batch's
// completions stay in posting order throughout.
func TestCQSoftDepth(t *testing.T) {
	const posts = 16
	env, _, devs := testNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 64))
	cq := devs[0].CreateCQ("small", 4)
	wrs := make([]WR, posts)
	for i := range wrs {
		wrs[i] = WR{ID: uint64(i), Op: OpFAA, Target: mr.Addr(), Off: 0, Delta: 1}
	}
	env.Go("poster", func(p *sim.Proc) {
		devs[0].PostList(cq, wrs)
		// Drain only after every completion has been generated.
		p.Sleep(time.Second)
		if cq.ch.Len() != posts {
			t.Errorf("pending = %d, want %d (no completion may be dropped at depth 4)", cq.ch.Len(), posts)
		}
		for i := 0; i < posts; i++ {
			c := cq.Poll(p)
			if c.ID != uint64(i) {
				t.Fatalf("completion %d has ID %d, want in posting order", i, c.ID)
			}
			if c.Err != nil {
				t.Fatalf("completion %d: %v", i, c.Err)
			}
			if c.Old != uint64(i) {
				t.Errorf("faa %d returned old=%d, want %d", i, c.Old, i)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPostListInOrderMixed posts a batch whose operations complete out
// of order in virtual time (a large write finishes after a fast atomic)
// and asserts the reorder buffer still delivers completions in posting
// order with correct per-op results; a malformed op completes in its
// slot with an error.
func TestPostListInOrderMixed(t *testing.T) {
	env, _, devs := testNet(t, 2)
	tgt := make([]byte, 1<<16)
	mr := devs[1].RegisterAtSetup(tgt)
	mr.PutUint64At(8, 100)
	dst := make([]byte, 8)
	big := bytes.Repeat([]byte{7}, 1<<15)
	wrs := []WR{
		{ID: 10, Op: OpWrite, Target: mr.Addr(), Off: 1024, Src: big},
		{ID: 11, Op: OpFAA, Target: mr.Addr(), Off: 8, Delta: 5},
		{ID: 12, Op: "flush", Target: mr.Addr()},
		{ID: 13, Op: OpCAS, Target: mr.Addr(), Off: 8, Compare: 105, Swap: 200},
		{ID: 14, Op: OpRead, Target: mr.Addr(), Off: 8, Dst: dst},
	}
	cq := devs[0].CreateCQ("mixed", 8)
	env.Go("driver", func(p *sim.Proc) {
		devs[0].PostList(cq, wrs)
		for i, wantID := range []uint64{10, 11, 12, 13, 14} {
			c := cq.Poll(p)
			if c.ID != wantID {
				t.Fatalf("completion %d: ID=%d, want %d (posting order)", i, c.ID, wantID)
			}
			switch c.ID {
			case 11:
				if c.Err != nil || c.Old != 100 {
					t.Errorf("faa: old=%d err=%v, want 100/nil", c.Old, c.Err)
				}
			case 12:
				if c.Err == nil {
					t.Error("unknown op completed without error")
				}
			case 13:
				if c.Err != nil || c.Old != 105 {
					t.Errorf("cas: old=%d err=%v, want 105/nil", c.Old, c.Err)
				}
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mr.Uint64At(8); got != 200 {
		t.Errorf("word = %d after faa+cas, want 200", got)
	}
	if !bytes.Equal(tgt[1024:1024+len(big)], big) {
		t.Error("batched write not applied")
	}
}

// TestIssueChainsFromItsHandler drives a three-op chain from a handler
// CQ: each completion's handler issues the next operation. The record is
// back in the pool before the handler runs, so the whole chain rides one
// record; a malformed request completes inside Issue; and an op issued
// into a polled CQ takes the blocking call's time, not a doorbell more.
func TestIssueChainsFromItsHandler(t *testing.T) {
	env, _, devs := testNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 64))
	mr.PutUint64At(8, 100)
	dst := make([]byte, 8)
	var steps []string
	var cq *CQ
	cq = HandlerCQ(func(c Completion) {
		steps = append(steps, fmt.Sprintf("%s@%v old=%d err=%v", c.Op, env.Now(), c.Old, c.Err != nil))
		switch c.ID {
		case 1:
			devs[0].Issue(cq, WR{ID: 2, Op: OpCAS, Target: mr.Addr(), Off: 8, Compare: 100, Swap: 7})
		case 2:
			devs[0].Issue(cq, WR{ID: 3, Op: "flush", Target: mr.Addr()})
			steps = append(steps, "flush returned")
		}
	})
	polled := devs[0].CreateCQ("polled", 1)
	env.Go("driver", func(p *sim.Proc) {
		devs[0].Issue(cq, WR{ID: 1, Op: OpRead, Target: mr.Addr(), Off: 8, Dst: dst})
		p.Sleep(time.Millisecond)
		start := p.Now()
		if err := devs[0].Read(p, dst, mr.Addr(), 8); err != nil {
			t.Error(err)
		}
		blocking := p.Now() - start
		start = p.Now()
		devs[0].Issue(polled, WR{ID: 4, Op: OpRead, Target: mr.Addr(), Off: 8, Dst: dst})
		if c := polled.Poll(p); c.ID != 4 || c.Err != nil || p.Now()-start != blocking {
			t.Errorf("issued into a polled CQ: %+v after %v, want the blocking read's %v", c, p.Now()-start, blocking)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"read@6.008µs old=0 err=false", "cas@14.008µs old=100 err=false",
		"flush@14.008µs old=0 err=true", "flush returned"}
	if fmt.Sprint(steps) != fmt.Sprint(want) {
		t.Fatalf("chain ran %q, want %q", steps, want)
	}
	if got := mr.Uint64At(8); got != 7 {
		t.Errorf("word = %d after the chain's cas, want 7", got)
	}
	if n := len(devs[0].wrFree); n != 1 {
		t.Errorf("the chain left %d records in the pool, want the one it reused", n)
	}
}

// TestSendBufPoolReuse pins the buffer-pool ownership loop: a released
// receive buffer is the very storage the next GetBuf on that device
// hands out.
func TestSendBufPoolReuse(t *testing.T) {
	env, _, devs := testNet(t, 2)
	q := devs[1].Bind("svc")
	env.Go("driver", func(p *sim.Proc) {
		b := devs[0].GetBuf(48)
		first := &b[0]
		copy(b, "payload")
		if err := devs[0].SendBuf(p, q, b); err != nil {
			t.Fatal(err)
		}
		msg := q.Recv(p)
		if &msg.Data[0] != first {
			t.Error("SendBuf copied: receiver did not get the sender's pooled buffer")
		}
		msg.Release()
		b2 := devs[0].GetBuf(48)
		if &b2[0] != first {
			t.Error("released buffer was not recycled by the next GetBuf")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestVerbsSteadyStateAllocationFree asserts the acceptance criterion:
// once pools are warm, the verbs hot paths — pooled two-sided messaging
// (GetBuf, SendBuf from a process or SendAsync from a timer, Recv,
// Release), doorbell-batched posted work requests
// drained through a CQ, and blocking RC reads and atomics against
// already-established peers on non-contiguous node IDs — allocate nothing
// per operation. The connection bitset grows on first contact only.
func TestVerbsSteadyStateAllocationFree(t *testing.T) {
	env, nw, devs := testNet(t, 2)
	mr := devs[1].RegisterAtSetup(make([]byte, 1<<16))
	rcPeers := []RemoteAddr{mr.Addr()}
	for _, id := range []int{3, 70} {
		d := nw.Attach(cluster.NewNode(env, id, 4, 1<<30))
		rcPeers = append(rcPeers, d.RegisterAtSetup(make([]byte, 64)).Addr())
	}
	cq := devs[0].CreateCQ("bench", 64)
	wrs := make([]WR, 8)
	src := make([]byte, 256)
	for i := range wrs {
		wrs[i] = WR{ID: uint64(i), Op: OpWrite, Target: mr.Addr(), Off: i * 256, Src: src}
	}
	env.GoDaemon("poster", func(p *sim.Proc) {
		for {
			devs[0].PostList(cq, wrs)
			for range wrs {
				cq.Poll(p)
			}
		}
	})
	hot := devs[1].Bind("hot")
	env.GoDaemon("sender", func(p *sim.Proc) {
		for {
			b := devs[0].GetBuf(64)
			b[0] = 1
			if err := devs[0].SendBuf(p, hot, b); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(10 * time.Microsecond)
		}
	})
	var asyncSend func()
	asyncSend = func() {
		if err := devs[0].SendAsync(hot, devs[0].GetBuf(64), nil); err != nil {
			t.Error(err)
			return
		}
		env.After(7*time.Microsecond, asyncSend)
	}
	env.After(0, asyncSend)
	env.GoDaemon("receiver", func(p *sim.Proc) {
		for {
			msg := hot.Recv(p)
			msg.Release()
		}
	})
	env.GoDaemon("rc-reader", func(p *sim.Proc) {
		dst := make([]byte, 8)
		for {
			for _, r := range rcPeers {
				if err := devs[0].Read(p, dst, r, 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := devs[0].CompareSwap(p, r, 8, 0, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	limit := sim.Time(0)
	step := func() {
		limit = limit.Add(time.Millisecond)
		if err := env.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm buffer pools, chain records, waiter free lists
	allocs := testing.AllocsPerRun(20, step)
	// Each run covers hundreds of posted WRs and dozens of messages;
	// allow a little runtime noise but catch any per-op allocation.
	if allocs > 2 {
		t.Errorf("steady-state verbs datapath allocates %.1f allocs per 1ms step, want ~0", allocs)
	}
	if cs := devs[0].ConnStats(); cs.Conns != 3 || cs.Establishes != 3 {
		t.Errorf("stats = %+v, want 3 established RC peers", cs)
	}
	env.Shutdown()
}

// legacyWrite reproduces the pre-chain segmented write timeline
// (blocking AcquireTx, then the placement sleep) for benchmarking the
// old goroutine-per-WR datapath against the event chains.
func legacyWrite(p *sim.Proc, d *Device, mr *MR, off int, src []byte) {
	pp := d.nw.params
	d.nic.AcquireTx(p, pp.IBTxTime(len(src)))
	p.Sleep(pp.IBWriteLatency)
	copy(mr.buf[off:off+len(src)], src)
}

func benchPostedOps(b *testing.B, goroutinePerWR bool) {
	env := sim.NewEnv(1)
	nw := NewNetwork(env, fabric.DefaultParams())
	d0 := nw.Attach(cluster.NewNode(env, 0, 4, 1<<30))
	d1 := nw.Attach(cluster.NewNode(env, 1, 4, 1<<30))
	mr := d1.RegisterAtSetup(make([]byte, 1<<16))
	cq := d0.CreateCQ("bench", 256)
	const batch = 64
	src := make([]byte, 512)
	wrs := make([]WR, batch)
	for i := range wrs {
		wrs[i] = WR{ID: uint64(i), Op: OpWrite, Target: mr.Addr(), Off: (i * 512) % (1 << 16), Src: src}
	}
	env.Go("driver", func(p *sim.Proc) {
		for done := 0; done < b.N; done += batch {
			if goroutinePerWR {
				for i := range wrs {
					wr := wrs[i]
					env.Go(fmt.Sprintf("%s/wr-write-%d", d0.Node.Name, wr.ID), func(wp *sim.Proc) {
						legacyWrite(wp, d0, mr, wr.Off, wr.Src)
						cq.ch.Send(Completion{ID: wr.ID, Op: OpWrite})
					})
				}
			} else {
				d0.PostList(cq, wrs)
			}
			for i := 0; i < batch; i++ {
				cq.Poll(p)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	env.Shutdown()
}

// BenchmarkVerbsPostedOps measures doorbell-batched posted-write
// throughput through the event-chain datapath; the acceptance gate is
// ≥1.5x the goroutine-per-WR baseline below.
func BenchmarkVerbsPostedOps(b *testing.B) { benchPostedOps(b, false) }

// BenchmarkVerbsPostedOpsGoroutine reproduces the pre-rewrite datapath:
// one spawned process per work request walking the segmented timeline.
func BenchmarkVerbsPostedOpsGoroutine(b *testing.B) { benchPostedOps(b, true) }
