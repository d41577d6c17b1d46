package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"ngdc/internal/metrics"
	ngdcrt "ngdc/internal/runtime"
	"ngdc/internal/serve"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

// Both service workloads drive the ngdc-serve request surface with the
// same round of five operations: echo, put, get (read back), lock,
// unlock. Locks span lockSpan ids and every third is exclusive, as in
// serve.RunLoad; a lock is always followed directly by its unlock, so
// no session ever holds one lock while waiting for another.
const (
	lockSpan   = 8
	valueBytes = 64
	opsPerRnd  = 5
)

func lockOf(i int) (id uint32, excl bool) { return uint32(i % lockSpan), i%3 == 0 }

// p50p99 pools per-session (or per-connection) samples, which are kept
// in preallocated slices so that recording them allocates nothing inside
// a timed window, and returns their median and 99th percentile.
func p50p99(parts [][]float64) (p50, p99 float64) {
	var s metrics.Sample
	for _, part := range parts {
		for _, v := range part {
			s.Add(v)
		}
	}
	return s.Percentile(50), s.Percentile(99)
}

// randBytes returns n blocks of valueBytes random bytes.
func randBytes(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, valueBytes)
		rng.Read(out[i])
	}
	return out
}

// --- svc-sim -------------------------------------------------------------

const (
	simNodes    = 16
	simSessions = simNodes // more than one session per home node panics dlm ("double outstanding request")
	simRounds   = 12_000
	simKeys     = 64 // per session; each key is one 256-byte DDSS segment, allocated on first put
)

// simSession is one session's outcome.
type simSession struct {
	ops     int64
	latHash uint64 // running hash of every request's virtual latency
	end     time.Duration
	err     error
}

var svcSim = func() *workload {
	w := &workload{
		name: "svc-sim",
		why:  "ngdc-serve surface on the DES, one session per node: N-CoSED dlm, ddss, serve codec and dispatch, sim transport; hand-off share is the highest",
		des:  true,
		call: "runtime.SimRuntime.Run",
	}
	var blocks [][]byte // echo payloads and put values, from the seed
	var lats [][]float64
	w.prepare = func(r *run) error {
		blocks = randBytes(rand.New(rand.NewSource(r.cfg.seed)), 256)
		if r.cfg.trace {
			lats = make([][]float64, simSessions)
			for s := range lats {
				lats[s] = make([]float64, 0, r.cfg.scale(simRounds)*opsPerRnd)
			}
		}
		return nil
	}
	w.rep = func(r *run) repOut {
		rounds := r.cfg.scale(simRounds)
		out := repOut{requests: int64(simSessions * rounds * opsPerRnd)}

		t0 := time.Now()
		env := sim.NewEnv(r.cfg.seed)
		defer env.Shutdown()
		rt := ngdcrt.NewSim(env)
		srv := serve.New(rt, serve.Options{Nodes: simNodes, Seed: r.cfg.seed})
		ln, err := rt.Listen("ngdc")
		if err != nil {
			out.failed, out.why = out.requests, err.Error()
			return out
		}
		srv.Serve(ln)
		out.build = time.Since(t0)

		sess := make([]simSession, simSessions)
		// Latencies are kept only where percentiles are wanted; every
		// repetition hashes them.
		var keep [][]float64
		if r.tracedRep {
			keep = lats
		}
		for s := range sess {
			s := s
			if keep != nil {
				keep[s] = keep[s][:0]
			}
			rt.Go(fmt.Sprintf("session-%d", s), func(t ngdcrt.Task) {
				sess[s] = simScript(t, rt, s, rounds, blocks, keep)
			})
		}
		var runErr error
		r.timed(func() { runErr = rt.Run() })

		if runErr != nil {
			out.failed, out.why = out.requests, runErr.Error()
			return out
		}
		digest := fmt.Sprintf("end=%d", env.Now())
		var done int64
		for s, ss := range sess {
			if ss.err != nil && out.why == "" {
				out.why = fmt.Sprintf("session %d: %v", s, ss.err)
			}
			done += ss.ops
			digest += fmt.Sprintf(" %d:%d:%x", ss.ops, ss.end, ss.latHash)
		}
		if out.why != "" || done != out.requests {
			out.failed = out.requests
			if out.why == "" {
				out.why = fmt.Sprintf("%d of %d requests completed", done, out.requests)
			}
			return out
		}
		h := fnv.New64a()
		h.Write([]byte(digest))
		out.digest = fmt.Sprintf("%016x", h.Sum64())

		st := trace.Of(env).Snapshot() // core.New attaches a registry to every framework it builds
		out.events = st.Engine.EventsProcessed
		req, kreq := float64(out.requests), float64(out.requests)/1000
		out.layer = simLayerCounts(st, req, kreq)
		if virt := time.Duration(env.Now()).Seconds(); virt > 0 {
			out.layer["model.virt_reqs_per_s"] = req / virt
		}
		if keep != nil {
			out.layer["model.virt_p50_us"], out.layer["model.virt_p99_us"] = p50p99(keep)
		}
		return out
	}
	return w
}()

// simLayerCounts turns a trace snapshot into the per-layer counts both
// harness-owned DES workloads (svc-sim, figs) publish.
func simLayerCounts(st trace.TraceStats, req, kreq float64) map[string]float64 {
	var wire, host time.Duration
	for _, t := range st.Fabric {
		wire += t.Wire
		host += t.HostCPU
	}
	return map[string]float64{
		"sim.events_per_req":         float64(st.Engine.EventsProcessed) / req,
		"sim.procs_spawned_per_kreq": float64(st.Engine.ProcsSpawned) / kreq,
		"sim.max_event_queue":        float64(st.Engine.MaxEventQueue),
		"verbs.ops_per_req":          float64(st.VerbsOps()) / req,
		"verbs.bytes_per_req":        float64(st.VerbsBytes()) / req,
		"fabric.wire_us_per_req":     float64(wire) / float64(time.Microsecond) / req,
		"fabric.hostcpu_us_per_req":  float64(host) / float64(time.Microsecond) / req,
		"sockets.stalls_per_kreq":    float64(st.Stalls()) / kreq,
	}
}

// simScript is one session's closed loop on the simulated server.
func simScript(t ngdcrt.Task, rt ngdcrt.Runtime, s, rounds int, blocks [][]byte, keep [][]float64) (res simSession) {
	cl, err := serve.Dial(rt, "ngdc")
	if err != nil {
		res.err = err
		return res
	}
	defer cl.Close()
	res.latHash = 14695981039346656037
	last := t.Now()
	tick := func() {
		now := t.Now()
		lat := now - last
		last = now
		res.latHash = (res.latHash ^ uint64(lat)) * 1099511628211
		res.ops++
		if keep != nil {
			keep[s] = append(keep[s], float64(lat)/float64(time.Microsecond))
		}
	}
	keys := make([]string, simKeys)
	for k := range keys {
		keys[k] = fmt.Sprintf("s%02d-k%02d", s, k)
	}
	for k := 0; k < rounds; k++ {
		payload := blocks[(s*31+k)%len(blocks)]
		got, err := cl.Echo(t, payload)
		if err != nil || !bytes.Equal(got, payload) {
			res.err = fmt.Errorf("round %d: echo returned %d bytes, err %v", k, len(got), err)
			return res
		}
		tick()
		key, val := keys[k%simKeys], blocks[(s*17+k*7)%len(blocks)]
		if err := cl.Put(t, key, val); err != nil {
			res.err = fmt.Errorf("round %d: put: %w", k, err)
			return res
		}
		tick()
		back, ok, err := cl.Get(t, key)
		if err != nil || !ok || !bytes.Equal(back, val) {
			res.err = fmt.Errorf("round %d: get read back %d bytes, ok %v, err %v", k, len(back), ok, err)
			return res
		}
		tick()
		lock, excl := lockOf(s + k)
		if err := cl.Lock(t, int(lock), excl); err != nil {
			res.err = fmt.Errorf("round %d: lock: %w", k, err)
			return res
		}
		tick()
		if err := cl.Unlock(t, int(lock), excl); err != nil {
			res.err = fmt.Errorf("round %d: unlock: %w", k, err)
			return res
		}
		tick()
	}
	res.end = t.Now()
	return res
}

// --- svc-live ------------------------------------------------------------

const (
	liveConns    = 2 // <= nproc OS-level workers beside the server's two handlers
	liveRounds   = 12
	liveWindow   = liveRounds * opsPerRnd // frames in flight per connection
	liveBatches  = 4000                   // per connection per repetition
	liveKeys     = 1024                   // per connection
	liveDistinct = 256                    // pre-encoded batches per connection, cycled
	spanEvery    = 64                     // traced repetitions split every 64th batch into spans
)

// liveFrame is one pre-encoded request and the response it must get.
type liveFrame struct {
	req   serve.Request
	frame []byte
	want  []byte // StatusOK value
}

// liveBatchesFor pre-encodes connection c's batches: liveRounds rounds
// of the five operations, values drawn from rng.
func liveBatchesFor(c int, rng *rand.Rand) ([][]liveFrame, error) {
	vals := randBytes(rng, 512)
	batches := make([][]liveFrame, liveDistinct)
	for b := range batches {
		for j := 0; j < liveRounds; j++ {
			i := b*liveRounds + j
			key := fmt.Sprintf("c%d-k%04d", c, i%liveKeys)
			val := vals[(i*5+c)%len(vals)]
			lock, excl := lockOf(c + i)
			payload := vals[(i*3+c+1)%len(vals)]
			batches[b] = append(batches[b],
				liveFrame{req: serve.Request{Op: serve.OpEcho, Val: payload}, want: payload},
				liveFrame{req: serve.Request{Op: serve.OpPut, Key: key, Val: val}},
				liveFrame{req: serve.Request{Op: serve.OpGet, Key: key}, want: val},
				liveFrame{req: serve.Request{Op: serve.OpLock, Lock: lock, Excl: excl}},
				liveFrame{req: serve.Request{Op: serve.OpUnlock, Lock: lock, Excl: excl}},
			)
		}
		if err := encodeBatch(batches[b]); err != nil {
			return nil, err
		}
	}
	return batches, nil
}

func encodeBatch(batch []liveFrame) error {
	for i := range batch {
		var err error
		if batch[i].frame, err = serve.AppendRequest(nil, batch[i].req); err != nil {
			return err
		}
	}
	return nil
}

// liveServer starts a live server on a fresh runtime and loopback TCP
// listener; stop shuts both down.
func liveServer() (rt *ngdcrt.RealRuntime, addr string, err error) {
	rt = ngdcrt.NewReal()
	srv := serve.New(rt, serve.Options{})
	ln, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		rt.Shutdown()
		return nil, "", err
	}
	srv.Serve(ln)
	return rt, ln.Addr(), nil
}

// liveTrace is what a traced repetition records per connection.
type liveTrace struct {
	spans  *spanLog
	parent int
	rtts   []float64 // µs per batch
}

// liveDrive sends n batches over conn with liveWindow frames in flight:
// all of a batch's frames go out, then all its responses are read and
// verified in order. The generator is closed-loop, so it cannot run
// late: there is no schedule to fall behind.
func liveDrive(conn ngdcrt.Conn, batches [][]liveFrame, n int, tr *liveTrace) (ops int64, err error) {
	resp := make([][]byte, 0, liveWindow)
	var scratch []liveFrame
	for b := 0; b < n; b++ {
		batch := batches[b%len(batches)]
		sampled := tr != nil && b%spanEvery == 0
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		if sampled {
			// Only a sampled batch is encoded inside the window, so that
			// the encode span measures real work.
			id := tr.spans.start(tr.parent, "serve.encode")
			scratch = append(scratch[:0], batch...)
			if err := encodeBatch(scratch); err != nil {
				return ops, err
			}
			batch = scratch
			tr.spans.end(id)
		}
		id := -1
		if sampled {
			id = tr.spans.start(tr.parent, "runtime.send")
		}
		for i := range batch {
			if err := conn.Send(nil, batch[i].frame); err != nil {
				return ops, fmt.Errorf("batch %d: send: %w", b, err)
			}
		}
		if sampled {
			tr.spans.end(id)
			id = tr.spans.start(tr.parent, "runtime.recv")
		}
		resp = resp[:0]
		for range batch {
			f, err := conn.Recv(nil)
			if err != nil {
				return ops, fmt.Errorf("batch %d: recv: %w", b, err)
			}
			resp = append(resp, f)
		}
		if sampled {
			tr.spans.end(id)
			id = tr.spans.start(tr.parent, "serve.decode")
		}
		if tr != nil {
			tr.rtts = append(tr.rtts, float64(time.Since(t0))/float64(time.Microsecond))
		}
		for i := range batch {
			st, val, err := serve.DecodeResponse(resp[i])
			if err != nil {
				return ops, fmt.Errorf("batch %d frame %d: %w", b, i, err)
			}
			if st != serve.StatusOK || !bytes.Equal(val, batch[i].want) {
				return ops, fmt.Errorf("batch %d frame %d (op %d): status %d, %d-byte value, want OK and %d bytes",
					b, i, batch[i].req.Op, st, len(val), len(batch[i].want))
			}
			ops++
		}
		if sampled {
			tr.spans.end(id)
		}
	}
	return ops, nil
}

var svcLive = func() *workload {
	w := &workload{
		name: "svc-live",
		why:  "live ngdc-serve on loopback TCP, 2 pipelined connections: shares the serve codec with svc-sim, swaps backend and transport for goroutines and sockets",
		call: "serve.live.window",
	}
	var batches [liveConns][][]liveFrame
	w.prepare = func(r *run) error {
		rng := rand.New(rand.NewSource(r.cfg.seed))
		for c := range batches {
			var err error
			if batches[c], err = liveBatchesFor(c, rng); err != nil {
				return err
			}
		}
		if r.cfg.corrupt {
			batches[0][0][0].want = append([]byte("x"), batches[0][0][0].want[1:]...)
		}
		return nil
	}
	w.rep = func(r *run) repOut {
		n := r.cfg.scale(liveBatches)
		out := repOut{requests: int64(liveConns * n * liveWindow)}
		fail := func(err error) repOut {
			out.failed, out.why = out.requests, err.Error()
			return out
		}

		t0 := time.Now()
		rt, addr, err := liveServer()
		if err != nil {
			return fail(err)
		}
		defer rt.Shutdown()
		var conns [liveConns]ngdcrt.Conn
		for c := range conns {
			if conns[c], err = rt.Dial(addr); err != nil {
				return fail(err)
			}
			defer conns[c].Close()
		}
		out.build = time.Since(t0)

		var ops [liveConns]int64
		var errs [liveConns]error
		var traces [liveConns]*liveTrace
		r.timed(func() {
			var wg sync.WaitGroup
			for c := range conns {
				if r.tracedRep {
					traces[c] = &liveTrace{spans: r.spans, parent: r.callSpan, rtts: make([]float64, 0, n)}
				}
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					ops[c], errs[c] = liveDrive(conns[c], batches[c], n, traces[c])
				}(c)
			}
			wg.Wait()
		})

		var done int64
		for c := range conns {
			if errs[c] != nil {
				return fail(fmt.Errorf("connection %d: %w", c, errs[c]))
			}
			done += ops[c]
		}
		if done != out.requests {
			return fail(fmt.Errorf("%d of %d responses verified", done, out.requests))
		}
		if r.tracedRep {
			p50, p99 := p50p99([][]float64{traces[0].rtts, traces[1].rtts})
			out.layer = map[string]float64{"serve.batch_rtt_p50_us": p50, "serve.batch_rtt_p99_us": p99}
		}
		return out
	}
	return w
}()
