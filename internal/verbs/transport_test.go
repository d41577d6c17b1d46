package verbs

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/faults"
	"ngdc/internal/sim"
)

// tcNet builds an n-node network with an explicit transport config and
// fabric params.
func tcNet(t testing.TB, n int, p fabric.Params, tc TransportConfig) (*sim.Env, *Network, []*Device) {
	t.Helper()
	env := sim.NewEnv(1)
	nw := NewNetworkWith(env, p, tc)
	devs := make([]*Device, n)
	for i := 0; i < n; i++ {
		devs[i] = nw.Attach(cluster.NewNode(env, i, 4, 1<<30))
	}
	return env, nw, devs
}

// readLatency measures one read of size n from devs[0] to each target in
// sequence, returning the per-op virtual latencies.
func readLatencies(t *testing.T, env *sim.Env, devs []*Device, mrs []*MR, targets []int) []time.Duration {
	t.Helper()
	out := make([]time.Duration, len(targets))
	env.Go("client", func(p *sim.Proc) {
		dst := make([]byte, 8)
		for i, tgt := range targets {
			start := p.Now()
			if err := devs[0].Read(p, dst, mrs[tgt].Addr(), 0); err != nil {
				t.Error(err)
			}
			out[i] = time.Duration(p.Now() - start)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRCLazyConnEstablishment pins the default-mode contract: connection
// records appear lazily on first use (no O(N²) setup), establishment is
// free in virtual time while the NIC context cache holds every resident
// connection, and memory is accounted on both endpoints.
func TestRCLazyConnEstablishment(t *testing.T) {
	pp := fabric.DefaultParams()
	env, _, devs := tcNet(t, 3, pp, TransportConfig{})
	mrs := []*MR{nil, devs[1].RegisterAtSetup(make([]byte, 64)), devs[2].RegisterAtSetup(make([]byte, 64))}
	for i, d := range devs {
		if got := d.ConnStats().Conns; got != 0 {
			t.Fatalf("dev %d holds %d conns before any op", i, got)
		}
	}
	lats := readLatencies(t, env, devs, mrs, []int{1, 1, 2})
	base := pp.IBReadLatency + pp.IBTxTime(8)
	for i, lat := range lats {
		if lat != base {
			t.Errorf("read %d took %v, want %v (establishment must be free below the cache limit)", i, lat, base)
		}
	}
	cs := devs[0].ConnStats()
	if cs.Conns != 2 || cs.Establishes != 2 || cs.Bytes != 2*pp.RCConnBytes {
		t.Errorf("initiator stats = %+v, want 2 conns, 2 establishes, %d bytes", cs, 2*pp.RCConnBytes)
	}
	for _, i := range []int{1, 2} {
		cs := devs[i].ConnStats()
		if cs.Conns != 1 || cs.Bytes != pp.RCConnBytes || cs.Establishes != 0 {
			t.Errorf("target %d stats = %+v, want 1 mirror conn of %d bytes", i, cs, pp.RCConnBytes)
		}
	}
}

// TestRCConnCacheThrash pins the scalability failure mode the pooled
// transport exists to fix: once a node's resident connections exceed the
// NIC context cache, every op pays the amortized miss cost.
func TestRCConnCacheThrash(t *testing.T) {
	pp := fabric.DefaultParams()
	pp.ConnCacheEntries = 4
	const n = 9 // device 0 talks to 8 peers: 2× the cache
	env, _, devs := tcNet(t, n, pp, TransportConfig{})
	mrs := make([]*MR, n)
	targets := make([]int, 0, 16)
	for i := 1; i < n; i++ {
		mrs[i] = devs[i].RegisterAtSetup(make([]byte, 64))
		targets = append(targets, i)
	}
	targets = append(targets, 1, 2) // revisit warm peers: still thrashing
	lats := readLatencies(t, env, devs, mrs, targets)
	base := pp.IBReadLatency + pp.IBTxTime(8)
	for i, lat := range lats {
		resident := i + 1 // conns on device 0 when op i issued
		if resident > 8 {
			resident = 8
		}
		want := base
		if resident > pp.ConnCacheEntries {
			want += pp.ConnCacheMissTime * time.Duration(resident-pp.ConnCacheEntries) / time.Duration(resident)
		}
		if lat != want {
			t.Errorf("op %d (resident %d): lat %v, want %v", i, resident, lat, want)
		}
	}
	if cs := devs[0].ConnStats(); cs.CacheMisses != 6 {
		t.Errorf("cache misses = %d, want 6", cs.CacheMisses)
	}
}

// TestPooledPromotionAndUD pins the hybrid datapath: low-rate peers ride
// the shared datagram endpoint (UDOverhead per op, one endpoint's memory
// total), the PromoteAfter-th use establishes a connected transport
// (ConnSetupTime), and pooled peers then run at base cost.
func TestPooledPromotionAndUD(t *testing.T) {
	pp := fabric.DefaultParams()
	env, _, devs := tcNet(t, 2, pp, TransportConfig{Mode: Pooled, PoolSlots: 4, PromoteAfter: 3})
	mrs := []*MR{nil, devs[1].RegisterAtSetup(make([]byte, 64))}
	lats := readLatencies(t, env, devs, mrs, []int{1, 1, 1, 1})
	base := pp.IBReadLatency + pp.IBTxTime(8)
	want := []time.Duration{base + pp.UDOverhead, base + pp.UDOverhead, base + pp.ConnSetupTime, base}
	for i := range want {
		if lats[i] != want[i] {
			t.Errorf("op %d: lat %v, want %v", i, lats[i], want[i])
		}
	}
	cs := devs[0].ConnStats()
	if cs.UDOps != 2 || cs.Establishes != 1 || cs.Pooled != 1 {
		t.Errorf("stats = %+v, want 2 UD ops, 1 establish, 1 pooled", cs)
	}
	if wantB := pp.RCConnBytes + pp.UDEndpointBytes; cs.Bytes != wantB {
		t.Errorf("bytes = %d, want %d", cs.Bytes, wantB)
	}
}

// TestPooledLRUEviction pins the pool policy: with PromoteAfter=1 the
// pool is a pure LRU connection cache, and touching more peers than
// PoolSlots evicts the least-recently-used transport (freeing both
// endpoints' memory).
func TestPooledLRUEviction(t *testing.T) {
	pp := fabric.DefaultParams()
	const n = 4
	env, _, devs := tcNet(t, n, pp, TransportConfig{Mode: Pooled, PoolSlots: 2, PromoteAfter: 1})
	mrs := make([]*MR, n)
	for i := 1; i < n; i++ {
		mrs[i] = devs[i].RegisterAtSetup(make([]byte, 64))
	}
	// 1, 2 fill the pool; 3 evicts 1; touching 2 makes 3 the LRU; 1
	// re-promotes and evicts 3.
	readLatencies(t, env, devs, mrs, []int{1, 2, 3, 2, 1})
	cs := devs[0].ConnStats()
	if cs.Pooled != 2 || cs.Conns != 2 || cs.Evictions != 2 || cs.Establishes != 4 {
		t.Errorf("stats = %+v, want pool 2/2, 2 evictions, 4 establishes", cs)
	}
	if got := devs[3].ConnStats().Conns; got != 0 {
		t.Errorf("evicted peer 3 still holds %d conn records (mirror leaked)", got)
	}
	if got := devs[1].ConnStats().Conns; got != 1 {
		t.Errorf("pooled peer 1 holds %d conn records, want 1 mirror", got)
	}
}

// TestPooledCrashHealsWithoutLeakingSlots is the faults satellite: a
// crash of a node holding (and held by) pooled transports frees the
// survivors' pool slots and the crashed HCA restarts cold; traffic after
// the restart re-promotes without ever exceeding the pool or leaking
// memory accounting.
func TestPooledCrashHealsWithoutLeakingSlots(t *testing.T) {
	pp := fabric.DefaultParams()
	const n = 6 // device 0 drives peers 1..5 through a 4-slot pool
	plan := &faults.Plan{Seed: 7, Events: []faults.Event{
		{At: 2 * time.Millisecond, Kind: faults.Crash, Node: 2},
		{At: 3 * time.Millisecond, Kind: faults.Restart, Node: 2},
		{At: 5 * time.Millisecond, Kind: faults.Crash, Node: 2},
		{At: 6 * time.Millisecond, Kind: faults.Restart, Node: 2},
	}}
	env := sim.NewEnv(1)
	faults.Install(env, plan)
	nw := NewNetworkWith(env, fabric.DefaultParams(), TransportConfig{Mode: Pooled, PoolSlots: 4, PromoteAfter: 1})
	devs := make([]*Device, n)
	for i := 0; i < n; i++ {
		devs[i] = nw.Attach(cluster.NewNode(env, i, 4, 1<<30))
	}
	mrs := make([]*MR, n)
	for i := 1; i < n; i++ {
		mrs[i] = devs[i].RegisterAtSetup(make([]byte, 64))
	}
	var midPool, midConns int
	env.Go("driver", func(p *sim.Proc) {
		dst := make([]byte, 8)
		rr := func(rounds int) {
			for r := 0; r < rounds; r++ {
				for i := 1; i < n; i++ {
					err := devs[0].Read(p, dst, mrs[i].Addr(), 0)
					if err != nil && i != 2 {
						t.Errorf("read to healthy peer %d: %v", i, err)
					}
					p.Sleep(50 * time.Microsecond)
				}
			}
		}
		rr(4) // fill and churn the pool
		p.SleepUntil(sim.Time(2500 * time.Microsecond))
		cs := devs[0].ConnStats()
		midPool, midConns = cs.Pooled, cs.Conns
		p.SleepUntil(sim.Time(6500 * time.Microsecond))
		rr(4) // heal: re-promote the restarted peer through the pool
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if midPool >= 4 {
		t.Errorf("pool still full (%d slots) right after peer crash — slot not reclaimed", midPool)
	}
	if midConns != midPool {
		t.Errorf("mid-crash conns %d != pooled %d on a pure-initiator device", midConns, midPool)
	}
	cs := devs[0].ConnStats()
	if cs.Pooled > 4 {
		t.Errorf("pool exceeded its %d slots: %+v", 4, cs)
	}
	if want := int64(cs.Conns) * pp.RCConnBytes; cs.Bytes != want {
		t.Errorf("initiator bytes %d != conns×RCConnBytes %d — accounting leaked across crashes", cs.Bytes, want)
	}
	crashed := devs[2].ConnStats()
	if crashed.Conns > 1 || crashed.Bytes != int64(crashed.Conns)*pp.RCConnBytes {
		t.Errorf("restarted node stats %+v — mirror state leaked across restart", crashed)
	}
	for i := 1; i < n; i++ {
		if b := devs[i].ConnStats().Bytes; b != int64(devs[i].ConnStats().Conns)*pp.RCConnBytes {
			t.Errorf("peer %d bytes %d inconsistent with its conn count", i, b)
		}
	}
	auditConns(t, nw)
}

// auditConns checks the datapath's connection membership on every
// attached device: a peer's bit is set iff conns holds its record, and
// the resident count equals the record count.
func auditConns(t testing.TB, nw *Network) bool {
	t.Helper()
	ok := true
	for id, d := range nw.devs {
		if d == nil {
			continue
		}
		set := 0
		for _, w := range d.linked {
			set += bits.OnesCount64(w)
		}
		if set != len(d.conns) || d.nconns != len(d.conns) {
			t.Errorf("node %d: %d bits set, resident count %d, %d records", id, set, d.nconns, len(d.conns))
			ok = false
		}
		for peer, c := range d.conns {
			if !d.isLinked(peer) || c.peer != peer {
				t.Errorf("node %d: record for peer %d (peer field %d) without its bit", id, peer, c.peer)
				ok = false
			}
		}
	}
	return ok
}

// TestConnMembershipProperty runs random sequences of the operations
// that create and destroy connection records — an op's connCost,
// an LRU eviction, a survivor's dropPeer and a whole crash (every
// survivor's dropPeer, then the crashed device's resetConns) — in both
// transport modes, on node IDs that straddle bitset words, and audits
// the membership invariant after every step.
func TestConnMembershipProperty(t *testing.T) {
	ids := []int{0, 2, 5, 63, 64, 130}
	modes := []TransportConfig{{}, {Mode: Pooled, PoolSlots: 2, PromoteAfter: 2}}
	prop := func(script []uint32) bool {
		for _, tc := range modes {
			pp := fabric.DefaultParams()
			pp.ConnCacheEntries = 2
			env := sim.NewEnv(1)
			nw := NewNetworkWith(env, pp, tc)
			devs := make([]*Device, len(ids))
			for i, id := range ids {
				devs[i] = nw.Attach(cluster.NewNode(env, id, 1, 1<<20))
			}
			for _, x := range script {
				d := devs[int(x>>2)%len(devs)]
				peer := ids[int(x>>8)%len(ids)]
				switch x % 8 {
				case 0, 1, 2, 3:
					d.connCost(peer)
				case 4, 5:
					d.evictLRU()
				case 6:
					d.dropPeer(peer)
				case 7:
					nw.nodeCrashed(d.Node.ID)
				}
				if !auditConns(t, nw) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNetworkSetupScalesLinearly is the lazy-construction satellite: a
// network over N nodes must build in O(N) allocations — no eager
// per-pair connection state.
func TestNetworkSetupScalesLinearly(t *testing.T) {
	setup := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			env := sim.NewEnv(1)
			nw := NewNetwork(env, fabric.DefaultParams())
			for i := 0; i < n; i++ {
				nw.Attach(cluster.NewNode(env, i, 2, 1<<20))
			}
		})
	}
	small, large := setup(128), setup(1024)
	if ratio := large / small; ratio > 12 {
		t.Errorf("setup allocations grew %.1fx over an 8x node increase (%.0f → %.0f) — construction is superlinear", ratio, small, large)
	}
}

// TestPooledSteadyStateAllocationFree extends the PR 3/5 discipline to
// the pooled transport: once promotions settle, the pooled-mode datapath
// (one-sided reads and pooled two-sided messaging across several peers)
// allocates nothing per operation.
func TestPooledSteadyStateAllocationFree(t *testing.T) {
	env, _, devs := tcNet(t, 5, fabric.DefaultParams(), TransportConfig{Mode: Pooled, PoolSlots: 8, PromoteAfter: 2})
	mrs := make([]*MR, 5)
	for i := 1; i < 5; i++ {
		mrs[i] = devs[i].RegisterAtSetup(make([]byte, 1<<12))
	}
	env.GoDaemon("reader", func(p *sim.Proc) {
		dst := make([]byte, 64)
		for {
			for i := 1; i < 5; i++ {
				if err := devs[0].Read(p, dst, mrs[i].Addr(), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	hot := devs[1].Bind("hot")
	env.GoDaemon("sender", func(p *sim.Proc) {
		for {
			b := devs[0].GetBuf(64)
			if err := devs[0].SendBuf(p, hot, b); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(10 * time.Microsecond)
		}
	})
	env.GoDaemon("receiver", func(p *sim.Proc) {
		for {
			msg := hot.Recv(p)
			msg.Release()
		}
	})
	limit := sim.Time(0)
	step := func() {
		limit = limit.Add(time.Millisecond)
		if err := env.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm pools, promote every peer
	allocs := testing.AllocsPerRun(20, step)
	if allocs > 2 {
		t.Errorf("pooled steady state allocates %.1f/step, want 0", allocs)
	}
	if cs := devs[0].ConnStats(); cs.Pooled != 4 || cs.UDOps == 0 {
		t.Errorf("stats = %+v, want all 4 peers promoted after UD warmup", cs)
	}
}

// TestTransportModeString keeps the mode labels stable — experiment
// tables and bench keys embed them.
func TestTransportModeString(t *testing.T) {
	if got := fmt.Sprintf("%s/%s", RCPerPair, Pooled); got != "rc/pooled" {
		t.Errorf("mode labels = %q", got)
	}
}
