package verbs

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
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

// auditConns checks the datapath's connection state on every attached
// device: the resident count equals the linked bits, every mirror bit
// is a linked bit, and in pooled mode the pool holds exactly the linked
// peers that are not mirrors, once each, within its slots, with
// distinct stamps no later than the last one issued.
func auditConns(t testing.TB, nw *Network) bool {
	t.Helper()
	ok := true
	for id, d := range nw.devs {
		if d == nil {
			continue
		}
		set, initiators := 0, 0
		for w, word := range d.linked {
			set += bits.OnesCount64(word)
			initiators += bits.OnesCount64(word &^ d.mirrored[w])
			if d.mirrored[w]&^word != 0 {
				t.Errorf("node %d: mirror bits %#x outside the linked bits %#x", id, d.mirrored[w], word)
				ok = false
			}
		}
		if len(d.mirrored) != len(d.linked) || d.nconns != set {
			t.Errorf("node %d: %d bits set, resident count %d, %d/%d words", id, set, d.nconns, len(d.linked), len(d.mirrored))
			ok = false
		}
		if nw.tc.Mode != Pooled {
			if d.lru != nil {
				t.Errorf("node %d: RC mode holds a pool %v", id, d.lru)
				ok = false
			}
			continue
		}
		stamps := map[uint64]bool{}
		for _, e := range d.lru {
			if !d.isLinked(e.peer) || isSet(d.mirrored, e.peer) || stamps[e.used] || e.used > d.lastUse {
				t.Errorf("node %d: pool entry %+v (linked %v) in %v, last stamp %d", id, e, d.isLinked(e.peer), d.lru, d.lastUse)
				ok = false
			}
			stamps[e.used] = true
		}
		if len(d.lru) != initiators || len(d.lru) > nw.tc.PoolSlots {
			t.Errorf("node %d: %d pool entries for %d initiators, %d slots", id, len(d.lru), initiators, nw.tc.PoolSlots)
			ok = false
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

// refNet is a reference model of the connection state: per device a
// record kind by peer ('i' initiator, 'm' mirror), the pooled peers in
// LRU order (least recent first), the promotion sketch and the
// establish/evict counters, written with maps and slices and no
// cleverness. TestPoolMatchesReferenceLRU drives it and a real network
// with one script.
type refNet struct {
	tc   TransportConfig
	devs map[int]*refDev
}

type refDev struct {
	kind       map[int]byte
	lru        []int
	hot        [hotSketchSlots]int
	est, evict int64
}

func (r *refNet) connCost(id, peer int) {
	d := r.devs[id]
	if peer == id {
		return
	}
	if k, ok := d.kind[peer]; ok {
		if k == 'i' && r.tc.Mode == Pooled {
			d.lru = append(slices.DeleteFunc(d.lru, func(p int) bool { return p == peer }), peer)
		}
		return
	}
	if r.tc.Mode == Pooled {
		slot := &d.hot[hotSlot(peer)]
		if *slot+1 < r.tc.PromoteAfter {
			*slot++
			return
		}
		*slot = 0
		if len(d.lru) >= r.tc.PoolSlots {
			r.evictLRU(id)
		}
		d.lru = append(d.lru, peer)
	}
	d.kind[peer] = 'i'
	d.est++
	if t := r.devs[peer]; t != nil {
		if _, ok := t.kind[id]; !ok {
			t.kind[id] = 'm'
		}
	}
}

func (r *refNet) remove(id, peer int, tearMirror bool) {
	d := r.devs[id]
	d.lru = slices.DeleteFunc(d.lru, func(p int) bool { return p == peer })
	delete(d.kind, peer)
	if t := r.devs[peer]; tearMirror && t != nil && t.kind[id] == 'm' {
		r.remove(peer, id, false)
	}
}

func (r *refNet) evictLRU(id int) {
	if d := r.devs[id]; len(d.lru) > 0 {
		d.evict++
		r.remove(id, d.lru[0], true)
	}
}

func (r *refNet) dropPeer(id, peer int) {
	if _, ok := r.devs[id].kind[peer]; ok {
		r.remove(id, peer, true)
	}
}

func (r *refNet) crash(node int) {
	for id := range r.devs {
		if id != node {
			r.dropPeer(id, node)
		}
	}
	d := r.devs[node]
	for peer := range d.kind {
		r.remove(node, peer, true)
	}
	d.hot = [hotSketchSlots]int{}
}

// TestPoolMatchesReferenceLRU runs random sequences of connect (an op's
// connCost), LRU eviction, a survivor's dropPeer and whole-node crashes
// on a real network and on refNet, in both transport modes, and after
// every step compares each device's records — initiator and mirror peers,
// the pool in recency order — and its ConnStats counts.
func TestPoolMatchesReferenceLRU(t *testing.T) {
	ids := []int{0, 2, 5, 63, 64, 130}
	modes := []TransportConfig{{}, {Mode: Pooled, PoolSlots: 3, PromoteAfter: 2}}
	prop := func(script []uint32) bool {
		for _, tc := range modes {
			env := sim.NewEnv(1)
			nw := NewNetworkWith(env, fabric.DefaultParams(), tc)
			ref := &refNet{tc: nw.Transport(), devs: map[int]*refDev{}}
			devs := make([]*Device, len(ids))
			for i, id := range ids {
				devs[i] = nw.Attach(cluster.NewNode(env, id, 1, 1<<20))
				ref.devs[id] = &refDev{kind: map[int]byte{}}
			}
			for step, x := range script {
				d := devs[int(x>>2)%len(devs)]
				id, peer := d.Node.ID, ids[int(x>>8)%len(ids)]
				switch x % 8 {
				case 0, 1, 2, 3, 4:
					d.connCost(peer)
					ref.connCost(id, peer)
				case 5:
					d.evictLRU()
					ref.evictLRU(id)
				case 6:
					d.dropPeer(peer)
					ref.dropPeer(id, peer)
				case 7:
					nw.nodeCrashed(id)
					ref.crash(id)
				}
				for _, d := range devs {
					rd := ref.devs[d.Node.ID]
					var init, mirror []int
					for _, p := range ids {
						switch rd.kind[p] {
						case 'i':
							init = append(init, p)
						case 'm':
							mirror = append(mirror, p)
						}
					}
					gotInit, gotMirror := connRecords(d)
					cs := d.ConnStats()
					want := ConnStats{Conns: len(rd.kind), Pooled: len(rd.lru), Establishes: rd.est, Evictions: rd.evict}
					got := ConnStats{Conns: cs.Conns, Pooled: cs.Pooled, Establishes: cs.Establishes, Evictions: cs.Evictions}
					if !slices.Equal(gotInit, init) || !slices.Equal(gotMirror, mirror) ||
						!slices.Equal(poolByRecency(d), rd.lru) || got != want {
						t.Errorf("%s step %d node %d: initiators %v mirrors %v pool %v %+v, reference %v %v %v %+v",
							tc.Mode, step, d.Node.ID, gotInit, gotMirror, poolByRecency(d), got, init, mirror, rd.lru, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// connRecords lists d's initiator and mirror peers in ascending order.
func connRecords(d *Device) (init, mirror []int) {
	for w, word := range d.linked {
		for ; word != 0; word &= word - 1 {
			peer := w<<6 | bits.TrailingZeros64(word)
			if isSet(d.mirrored, peer) {
				mirror = append(mirror, peer)
			} else {
				init = append(init, peer)
			}
		}
	}
	return init, mirror
}

// poolByRecency lists d's pooled peers, least recently used first.
func poolByRecency(d *Device) []int {
	pool := slices.Clone(d.lru)
	slices.SortFunc(pool, func(a, b poolEntry) int { return cmp.Compare(a.used, b.used) })
	var out []int
	for _, e := range pool {
		out = append(out, e.peer)
	}
	return out
}
