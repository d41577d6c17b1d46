package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/coopcache"
	"ngdc/internal/ddss"
	"ngdc/internal/dlm"
	"ngdc/internal/fabric"
	"ngdc/internal/lru"
	ngdcrt "ngdc/internal/runtime"
	"ngdc/internal/serve"
	"ngdc/internal/sim"
	"ngdc/internal/sockets"
	"ngdc/internal/verbs"
	ngdcwl "ngdc/internal/workload"
)

// A layer drive is a short isolated loop over one layer's public API. It
// runs on traced runs only and reports the layer's bare cost per
// operation, so that a workload's cost per event or request can be set
// against what the layer does on its own (ROADMAP item 1: 1.44 M
// events/s in a cell against 4.65 M in the bare engine).
type drive struct {
	metric string
	// live drives use goroutines and sockets and run at the default
	// GOMAXPROCS; all others are single-goroutine or DES loops at 1 P.
	live bool
	// run performs about n operations and returns how many it did and
	// the wall time of the loop itself, set-up excluded.
	run func(n int) (ops int, wall time.Duration, err error)
	// n is the full-size operation count, chosen for roughly 0.2 s.
	n int
}

// simLoop times env.Run() for a DES drive whose processes are already
// spawned.
func simLoop(env *sim.Env) (time.Duration, error) {
	t0 := time.Now()
	err := env.Run()
	wall := time.Since(t0)
	env.Shutdown()
	return wall, err
}

// twoNodes builds the smallest verbs network.
func twoNodes(tc verbs.TransportConfig, n int) (*sim.Env, *verbs.Network, []*cluster.Node) {
	env := sim.NewEnv(1)
	nw := verbs.NewNetworkWith(env, fabric.DefaultParams(), tc)
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.NewNode(env, i, 2, 1<<30)
		nw.Attach(nodes[i])
	}
	return env, nw, nodes
}

// readDrive issues n one-sided 64-byte reads from node 0, round-robin
// over peers remote nodes.
func readDrive(tc verbs.TransportConfig, peers int) func(int) (int, time.Duration, error) {
	return func(n int) (int, time.Duration, error) {
		env, nw, _ := twoNodes(tc, peers+1)
		addrs := make([]verbs.RemoteAddr, peers)
		for i := range addrs {
			addrs[i] = nw.Device(i + 1).RegisterAtSetup(make([]byte, 4096)).Addr()
		}
		var opErr error
		env.Go("reader", func(p *sim.Proc) {
			dst := make([]byte, 64)
			for i := 0; i < n && opErr == nil; i++ {
				opErr = nw.Device(0).Read(p, dst, addrs[i%peers], 0)
			}
		})
		wall, err := simLoop(env)
		if err == nil {
			err = opErr
		}
		return n, wall, err
	}
}

var drives = []drive{
	{metric: "sim.drive_shallow_ns_per_event", n: 600_000, run: func(n int) (int, time.Duration, error) {
		// 16 sleeping processes: at most 16 events pending, the
		// pure-heap mode of the event queue.
		env := sim.NewEnv(1)
		for w := 0; w < 16; w++ {
			env.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
				for k := 0; k < n/16; k++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		wall, err := simLoop(env)
		return int(env.Stats().EventsProcessed), wall, err
	}},
	{metric: "sim.drive_deep_ns_per_event", n: 600_000, run: func(n int) (int, time.Duration, error) {
		// 100 k self-rescheduling timers spread over a window, so the
		// ladder queue holds ~100 k pending events throughout.
		pending := min(100_000, n) // a smoke run keeps the queue as shallow as its count
		env := sim.NewEnv(1)
		rng := uint64(0x9E3779B97F4A7C15)
		next := func() time.Duration {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return time.Duration(1 + rng%uint64(pending*1000))
		}
		remaining := n
		var tick func()
		tick = func() {
			if remaining > 0 {
				remaining--
				env.After(next(), tick)
			}
		}
		for i := 0; i < pending; i++ {
			env.After(next(), tick)
		}
		wall, err := simLoop(env)
		return int(env.Stats().EventsProcessed), wall, err
	}},
	{metric: "verbs.drive_posted_ns_per_op", n: 256_000, run: func(n int) (int, time.Duration, error) {
		// Doorbell-batched datapath: lists of 64 512-byte writes drained
		// through a completion queue.
		const batch = 64
		env, nw, _ := twoNodes(verbs.TransportConfig{}, 2)
		mr := nw.Device(1).RegisterAtSetup(make([]byte, 1<<16))
		cq := nw.Device(0).CreateCQ("drive", 256)
		src := make([]byte, 512)
		wrs := make([]verbs.WR, batch)
		for i := range wrs {
			wrs[i] = verbs.WR{ID: uint64(i), Op: verbs.OpWrite, Target: mr.Addr(), Off: (i * 512) % (1 << 16), Src: src}
		}
		rounds := max(n/batch, 1)
		env.Go("poster", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				nw.Device(0).PostList(cq, wrs)
				for i := 0; i < batch; i++ {
					cq.Poll(p)
				}
			}
		})
		wall, err := simLoop(env)
		return rounds * batch, wall, err
	}},
	{metric: "verbs.drive_read_rc_ns_per_op", n: 150_000, run: readDrive(verbs.TransportConfig{}, 8)},
	// 256 peers against a pool of 64 connected transports: every read
	// goes through pooled connection tracking, most through the
	// datagram path or an eviction.
	{metric: "verbs.drive_read_pooled_ns_per_op", n: 150_000, run: readDrive(verbs.PooledTransport(), 256)},
	{metric: "verbs.drive_cas_ns_per_op", n: 150_000, run: func(n int) (int, time.Duration, error) {
		env, nw, _ := twoNodes(verbs.TransportConfig{}, 2)
		addr := nw.Device(1).RegisterAtSetup(make([]byte, 64)).Addr()
		var opErr error
		env.Go("cas", func(p *sim.Proc) {
			for i := 0; i < n && opErr == nil; i++ {
				_, opErr = nw.Device(0).CompareSwap(p, addr, 0, uint64(i), uint64(i+1))
			}
		})
		wall, err := simLoop(env)
		if err == nil {
			err = opErr
		}
		return n, wall, err
	}},
	{metric: "sockets.drive_bsdp_ns_per_msg", n: 40_000, run: func(n int) (int, time.Duration, error) {
		t0 := time.Now()
		_, err := sockets.Bandwidth(sockets.BSDP, 8<<10, n, sockets.DefaultOptions(), 1)
		return n, time.Since(t0), err
	}},
	{metric: "ddss.drive_ns_per_op", n: 60_000, run: func(n int) (int, time.Duration, error) {
		// Remote put/get on a Version-coherent segment.
		env, nw, nodes := twoNodes(verbs.TransportConfig{}, 2)
		ss := ddss.New(nw, nodes, ddss.Options{})
		var opErr error
		env.Go("worker", func(p *sim.Proc) {
			h, err := ss.Client(1).Allocate(p, "seg", 4096, ddss.Version, 0)
			if err != nil {
				opErr = err
				return
			}
			data, buf := make([]byte, 1024), make([]byte, 1024)
			for k := 0; k < n/2 && opErr == nil; k++ {
				if _, opErr = h.Put(p, data); opErr == nil {
					_, opErr = h.Get(p, buf)
				}
			}
		})
		wall, err := simLoop(env)
		if err == nil {
			err = opErr
		}
		return n / 2 * 2, wall, err
	}},
	{metric: "dlm.drive_ns_per_op", n: 40_000, run: func(n int) (int, time.Duration, error) {
		// Two N-CoSED clients: a contended exclusive ping-pong mixed with
		// uncontended shared fast paths.
		env, nw, nodes := twoNodes(verbs.TransportConfig{}, 2)
		m := dlm.New(nw, nodes, dlm.Options{Kind: dlm.NCoSED, NumLocks: 4})
		rounds := max(n/8, 1)
		for c := 0; c < 2; c++ {
			cl := m.Client(c)
			env.Go(fmt.Sprintf("w%d", c), func(p *sim.Proc) {
				for k := 0; k < rounds; k++ {
					cl.Lock(p, 1, dlm.Exclusive)
					cl.Unlock(p, 1, dlm.Exclusive)
					cl.Lock(p, 0, dlm.Shared)
					cl.Unlock(p, 0, dlm.Shared)
				}
			})
		}
		wall, err := simLoop(env)
		return rounds * 8, wall, err
	}},
	{metric: "coopcache.drive_dir_ns_per_op", n: 120_000, run: func(n int) (int, time.Duration, error) {
		// Directory words on 8 home nodes: publish, look up, clear.
		const docs = 4096
		env, nw, nodes := twoNodes(verbs.TransportConfig{}, 9)
		dir := coopcache.NewDirectory(nw, nodes[1:], docs)
		var opErr error
		env.Go("dir", func(p *sim.Proc) {
			dev, scratch := nw.Device(0), make([]byte, 8)
			for i := 0; i < n/3 && opErr == nil; i++ {
				doc, e := i%docs, coopcache.PackEntry(1+i%8, i%64)
				if _, opErr = dir.Publish(p, dev, doc, e); opErr != nil {
					break
				}
				if _, opErr = dir.Lookup(p, dev, doc, scratch); opErr != nil {
					break
				}
				_, opErr = dir.Clear(p, dev, doc, e)
			}
		})
		wall, err := simLoop(env)
		if err == nil {
			err = opErr
		}
		return n / 3 * 3, wall, err
	}},
	{metric: "coopcache.drive_ccwr_ns_per_req", n: 2500, run: func(n int) (int, time.Duration, error) {
		// One short Fig 6 deployment of the CCWR scheme. The model is
		// sized by virtual time, so here n is its measured window in
		// units of 100 µs; the requests served are what is counted.
		cfg := coopcache.DefaultConfig(coopcache.CCWR, 2, 32<<10)
		cfg.Measure = time.Duration(n) * 100 * time.Microsecond
		cfg.Warmup = cfg.Measure * 2 / 5
		t0 := time.Now()
		st, err := coopcache.Run(cfg)
		return int(st.Requests), time.Since(t0), err
	}},
	{metric: "lru.drive_ns_per_op", n: 4_000_000, run: func(n int) (int, time.Duration, error) {
		// A Zipf-free churn loop: 4096 keys through a 1024-entry cache.
		c := lru.New[int32](1024 * 2048)
		var evicted []int32
		x := uint32(2463534242)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			if k := int32(x % 4096); !c.Get(k) {
				evicted = c.PutInto(k, 2048, evicted[:0])
			}
		}
		return n, time.Since(t0), nil
	}},
	{metric: "workload.drive_ns_per_next", n: 2_000_000, run: func(n int) (int, time.Duration, error) {
		st := ngdcwl.NewPopulation(200_000, 16384, 0.99, 1).Stream(0, 64)
		sink := 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += st.Next().Doc
		}
		wall := time.Since(t0)
		if sink < 0 {
			return 0, 0, fmt.Errorf("workload: negative document rank sum %d", sink)
		}
		return n, wall, nil
	}},
	{metric: "serve.drive_codec_ns_per_frame", n: 2_000_000, run: func(n int) (int, time.Duration, error) {
		// One put request and its get response through all four codec
		// functions, no transport.
		req := serve.Request{Op: serve.OpPut, Key: "c0-k0000", Val: make([]byte, valueBytes)}
		var frame, resp []byte
		t0 := time.Now()
		for i := 0; i < n; i++ {
			var err error
			if frame, err = serve.AppendRequest(frame[:0], req); err != nil {
				return i, time.Since(t0), err
			}
			got, err := serve.DecodeRequest(frame)
			if err != nil {
				return i, time.Since(t0), err
			}
			resp = serve.AppendResponse(resp[:0], serve.StatusOK, got.Val)
			if _, _, err := serve.DecodeResponse(resp); err != nil {
				return i, time.Since(t0), err
			}
		}
		return n, time.Since(t0), nil
	}},
	{metric: "runtime.drive_tcp_ns_per_frame", live: true, n: 120_000, run: func(n int) (int, time.Duration, error) {
		// Framed loopback TCP under an echo daemon, liveWindow frames in
		// flight: the transport's share of a svc-live request.
		rt := ngdcrt.NewReal()
		defer rt.Shutdown()
		ln, err := rt.Listen("127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		rt.GoDaemon("echo", func(t ngdcrt.Task) {
			conn, err := ln.Accept(t)
			if err != nil {
				return
			}
			defer conn.Close()
			for {
				f, err := conn.Recv(t)
				if err != nil || conn.Send(t, f) != nil {
					return
				}
			}
		})
		conn, err := rt.Dial(ln.Addr())
		if err != nil {
			return 0, 0, err
		}
		defer conn.Close()
		frame := make([]byte, 80)
		rounds := max(n/liveWindow, 1)
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for i := 0; i < liveWindow; i++ {
				if err := conn.Send(nil, frame); err != nil {
					return 0, 0, err
				}
			}
			for i := 0; i < liveWindow; i++ {
				if _, err := conn.Recv(nil); err != nil {
					return 0, 0, err
				}
			}
		}
		return rounds * liveWindow, time.Since(t0), nil
	}},
	{metric: "runtime.drive_sim_ns_per_frame", n: 200_000, run: func(n int) (int, time.Duration, error) {
		// The sim transport under an echo task: one frame each way per
		// round trip, the transport's share of a svc-sim request.
		env := sim.NewEnv(1)
		rt := ngdcrt.NewSim(env)
		ln, err := rt.Listen("echo")
		if err != nil {
			return 0, 0, err
		}
		rt.GoDaemon("echo", func(t ngdcrt.Task) {
			conn, err := ln.Accept(t)
			if err != nil {
				return
			}
			for {
				f, err := conn.Recv(t)
				if err != nil || conn.Send(t, f) != nil {
					return
				}
			}
		})
		var opErr error
		rt.Go("client", func(t ngdcrt.Task) {
			conn, err := rt.Dial("echo")
			if err != nil {
				opErr = err
				return
			}
			defer conn.Close()
			frame := make([]byte, 80)
			for i := 0; i < n/2 && opErr == nil; i++ {
				if opErr = conn.Send(t, frame); opErr == nil {
					_, opErr = conn.Recv(t)
				}
			}
		})
		wall, err := simLoop(env)
		if err == nil {
			err = opErr
		}
		return n / 2 * 2, wall, err
	}},
	liveOpDrive("serve.echo_ns_per_req", serve.OpEcho),
	liveOpDrive("serve.put_ns_per_req", serve.OpPut),
	liveOpDrive("serve.get_ns_per_req", serve.OpGet),
	liveOpDrive("serve.lock_ns_per_req", serve.OpLock),
}

// liveOpDrive streams homogeneous liveWindow-frame batches of one
// operation over one connection to a live server: the wall cost per
// request of that operation with the transport's batching held fixed.
// Lock batches alternate lock and unlock.
func liveOpDrive(metric string, op serve.Op) drive {
	return drive{metric: metric, live: true, n: 60_000, run: func(n int) (int, time.Duration, error) {
		vals := randBytes(rand.New(rand.NewSource(1)), liveWindow)
		batch := make([]liveFrame, liveWindow)
		for i := range batch {
			key := fmt.Sprintf("d-k%02d", i)
			switch op {
			case serve.OpEcho:
				batch[i] = liveFrame{req: serve.Request{Op: op, Val: vals[i]}, want: vals[i]}
			case serve.OpPut:
				batch[i] = liveFrame{req: serve.Request{Op: op, Key: key, Val: vals[i]}}
			case serve.OpGet:
				batch[i] = liveFrame{req: serve.Request{Op: op, Key: key}, want: vals[i]}
			case serve.OpLock:
				lock, excl := lockOf(i / 2)
				batch[i] = liveFrame{req: serve.Request{Op: op, Lock: lock, Excl: excl}}
				if i%2 == 1 {
					batch[i].req.Op = serve.OpUnlock
				}
			}
		}
		if err := encodeBatch(batch); err != nil {
			return 0, 0, err
		}
		rt, addr, err := liveServer()
		if err != nil {
			return 0, 0, err
		}
		defer rt.Shutdown()
		conn, err := rt.Dial(addr)
		if err != nil {
			return 0, 0, err
		}
		defer conn.Close()
		if op == serve.OpGet {
			// Store what the gets read back.
			puts := make([]liveFrame, liveWindow)
			for i := range puts {
				puts[i] = liveFrame{req: serve.Request{Op: serve.OpPut, Key: batch[i].req.Key, Val: vals[i]}}
			}
			if err := encodeBatch(puts); err != nil {
				return 0, 0, err
			}
			if _, err := liveDrive(conn, [][]liveFrame{puts}, 1, nil); err != nil {
				return 0, 0, err
			}
		}
		rounds := max(n/liveWindow, 1)
		t0 := time.Now()
		ops, err := liveDrive(conn, [][]liveFrame{batch}, rounds, nil)
		return int(ops), time.Since(t0), err
	}}
}

// runDrives runs every drive and returns ns per operation by metric.
// It restores the caller's GOMAXPROCS.
func runDrives(cfg config, spans *spanLog, parent int) (map[string]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	out := map[string]float64{}
	for _, d := range drives {
		procs := 1
		if d.live {
			procs = runtime.NumCPU()
		}
		runtime.GOMAXPROCS(procs)
		runtime.GC()
		id := spans.start(parent, "drive:"+d.metric)
		ops, wall, err := d.run(cfg.scale(d.n))
		spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.metric, err)
		}
		if ops <= 0 {
			return nil, fmt.Errorf("%s: drive did no operations", d.metric)
		}
		spans.count(id, "ops", float64(ops))
		out[d.metric] = float64(wall.Nanoseconds()) / float64(ops)
	}
	return out, nil
}
