package sockets

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
	"ngdc/internal/verbs"
)

var allSchemes = []Scheme{TCP, BSDP, ZSDP, AZSDP, PSDP}

func pair(seed int64) (*sim.Env, *verbs.Device, *verbs.Device) {
	env := sim.NewEnv(seed)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	a := nw.Attach(cluster.NewNode(env, 0, 4, 1<<30))
	b := nw.Attach(cluster.NewNode(env, 1, 4, 1<<30))
	return env, a, b
}

func TestRoundTripAllSchemes(t *testing.T) {
	for _, sc := range allSchemes {
		t.Run(sc.String(), func(t *testing.T) {
			env, a, b := pair(1)
			ca, cb := Dial(sc, a, b)
			msgs := [][]byte{
				[]byte("hello"),
				bytes.Repeat([]byte{0xAB}, 100),
				{},
				bytes.Repeat([]byte{0xCD}, 3000),
			}
			env.Go("server", func(p *sim.Proc) {
				for range msgs {
					got, err := cb.Recv(p)
					if err != nil {
						t.Error(err)
						return
					}
					if err := cb.Send(p, got); err != nil {
						t.Error(err)
						return
					}
				}
			})
			env.Go("client", func(p *sim.Proc) {
				for _, m := range msgs {
					if err := ca.Send(p, m); err != nil {
						t.Error(err)
						return
					}
					got, err := ca.Recv(p)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, m) {
						t.Errorf("echo mismatch: sent %d bytes got %d", len(m), len(got))
					}
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			env.Shutdown()
		})
	}
}

func TestMultiChunkReassembly(t *testing.T) {
	// Messages much larger than one bounce buffer must be chunked and
	// reassembled for the copy-based schemes.
	for _, sc := range []Scheme{BSDP, PSDP} {
		t.Run(sc.String(), func(t *testing.T) {
			env, a, b := pair(1)
			ca, cb := Dial(sc, a, b)
			big := make([]byte, 100*1024)
			for i := range big {
				big[i] = byte(i * 7)
			}
			var got []byte
			env.Go("rx", func(p *sim.Proc) { got, _ = cb.Recv(p) })
			env.Go("tx", func(p *sim.Proc) {
				if err := ca.Send(p, big); err != nil {
					t.Error(err)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			env.Shutdown()
			if !bytes.Equal(got, big) {
				t.Fatal("large message corrupted in chunking")
			}
		})
	}
}

func TestSenderBufferReusableAfterSend(t *testing.T) {
	for _, sc := range allSchemes {
		env, a, b := pair(1)
		ca, cb := Dial(sc, a, b)
		buf := []byte("original")
		var got []byte
		env.Go("rx", func(p *sim.Proc) { got, _ = cb.Recv(p) })
		env.Go("tx", func(p *sim.Proc) {
			if err := ca.Send(p, buf); err != nil {
				t.Error(err)
			}
			copy(buf, "CLOBBER!")
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		if string(got) != "original" {
			t.Fatalf("%v: receiver saw clobbered buffer %q", sc, got)
		}
	}
}

// bandwidth measures one-way streaming throughput in bytes/sec of virtual
// time for msgCount messages of msgSize.
func bandwidth(t *testing.T, sc Scheme, msgSize, msgCount int) float64 {
	t.Helper()
	env, a, b := pair(1)
	ca, cb := Dial(sc, a, b)
	payload := make([]byte, msgSize)
	var done sim.Time
	env.Go("rx", func(p *sim.Proc) {
		for i := 0; i < msgCount; i++ {
			if _, err := cb.Recv(p); err != nil {
				t.Error(err)
				return
			}
		}
		done = p.Now()
	})
	env.Go("tx", func(p *sim.Proc) {
		for i := 0; i < msgCount; i++ {
			if err := ca.Send(p, payload); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if done == 0 {
		t.Fatal("no completion")
	}
	return float64(msgSize*msgCount) / (float64(done) / float64(time.Second))
}

func TestPacketizedBeatsCreditForSmallMessages(t *testing.T) {
	bsdp := bandwidth(t, BSDP, 64, 3000)
	psdp := bandwidth(t, PSDP, 64, 3000)
	if psdp < 5*bsdp {
		t.Fatalf("P-SDP %.0f B/s vs BSDP %.0f B/s: want ~order-of-magnitude win", psdp, bsdp)
	}
}

func TestLargeMessagesConvergeAcrossSDPFlavours(t *testing.T) {
	// At 256 KiB everything is wire-bound; no SDP flavour should be more
	// than ~40% away from another.
	b1 := bandwidth(t, BSDP, 256*1024, 40)
	b2 := bandwidth(t, ZSDP, 256*1024, 40)
	b3 := bandwidth(t, AZSDP, 256*1024, 40)
	lo, hi := b1, b1
	for _, v := range []float64{b2, b3} {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo > 1.4 {
		t.Fatalf("large-message spread too wide: BSDP=%.0f ZSDP=%.0f AZSDP=%.0f", b1, b2, b3)
	}
}

func TestAZSDPBeatsZSDPForMediumMessages(t *testing.T) {
	z := bandwidth(t, ZSDP, 32*1024, 200)
	az := bandwidth(t, AZSDP, 32*1024, 200)
	if az < 1.15*z {
		t.Fatalf("AZ-SDP %.0f B/s vs ZSDP %.0f B/s: pipelining gain missing", az, z)
	}
}

func TestSDPBeatsTCP(t *testing.T) {
	tcp := bandwidth(t, TCP, 32*1024, 200)
	sdp := bandwidth(t, BSDP, 32*1024, 200)
	if sdp < tcp {
		t.Fatalf("BSDP %.0f B/s slower than TCP %.0f B/s", sdp, tcp)
	}
}

func TestTCPThroughputDropsUnderReceiverLoad(t *testing.T) {
	run := func(loaded bool) float64 {
		env, a, b := pair(1)
		if loaded {
			b.Node.SpawnLoad(8, 5*time.Millisecond, 0)
		}
		ca, cb := Dial(TCP, a, b)
		const n = 50
		var done sim.Time
		env.Go("rx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				cb.Recv(p)
			}
			done = p.Now()
		})
		env.Go("tx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ca.Send(p, make([]byte, 1024))
			}
		})
		if err := env.RunUntil(sim.Time(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		if done == 0 {
			return 0
		}
		return float64(n*1024) / (float64(done) / float64(time.Second))
	}
	unloaded, loaded := run(false), run(true)
	if loaded == 0 || unloaded == 0 {
		t.Fatal("transfer did not finish")
	}
	if loaded > unloaded/2 {
		t.Fatalf("TCP under load %.0f vs unloaded %.0f: insufficient sensitivity", loaded, unloaded)
	}
}

func TestConnCounters(t *testing.T) {
	env, a, b := pair(1)
	ca, cb := Dial(ZSDP, a, b)
	env.Go("rx", func(p *sim.Proc) { cb.Recv(p) })
	env.Go("tx", func(p *sim.Proc) { ca.Send(p, make([]byte, 500)) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Node.Stats().Connections != 1 || b.Node.Stats().Connections != 1 {
		t.Fatalf("connection stat not tracked")
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{TCP: "TCP", BSDP: "BSDP", ZSDP: "ZSDP", AZSDP: "AZ-SDP", PSDP: "P-SDP"}
	for sc, want := range names {
		if sc.String() != want {
			t.Fatalf("%d.String() = %q", sc, sc.String())
		}
	}
	if Scheme(99).String() != "Scheme(99)" {
		t.Fatal("unknown scheme string")
	}
}

// Property: any sequence of message sizes arrives intact and in order on
// every scheme.
func TestPropertyStreamIntegrity(t *testing.T) {
	f := func(sizes []uint16, schemeSel uint8) bool {
		sc := allSchemes[int(schemeSel)%len(allSchemes)]
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		env, a, b := pair(3)
		defer env.Shutdown()
		ca, cb := Dial(sc, a, b)
		var sent [][]byte
		for i, sz := range sizes {
			m := make([]byte, int(sz)%20000)
			for j := range m {
				m[j] = byte(i + j)
			}
			sent = append(sent, m)
		}
		okAll := true
		env.Go("rx", func(p *sim.Proc) {
			for _, want := range sent {
				got, err := cb.Recv(p)
				if err != nil || !bytes.Equal(got, want) {
					okAll = false
					return
				}
			}
		})
		env.Go("tx", func(p *sim.Proc) {
			for _, m := range sent {
				if err := ca.Send(p, m); err != nil {
					okAll = false
					return
				}
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: PSDP flow-control pool is fully returned after any workload.
func TestPropertyPSDPPoolConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 10 {
			sizes = sizes[:10]
		}
		env, a, b := pair(5)
		defer env.Shutdown()
		ca, cb := Dial(PSDP, a, b)
		n := len(sizes)
		env.Go("rx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				cb.Recv(p)
			}
		})
		env.Go("tx", func(p *sim.Proc) {
			for _, sz := range sizes {
				ca.Send(p, make([]byte, int(sz)%30000))
			}
		})
		if err := env.RunUntil(sim.Time(time.Minute)); err != nil {
			return false
		}
		h := ca.send
		return h.pool.InUse() == 0 && h.credits.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencySmallMessageOrdering(t *testing.T) {
	// One-way small-message latency: SDP flavours must beat TCP.
	oneWay := func(sc Scheme) time.Duration {
		env, a, b := pair(1)
		defer env.Shutdown()
		ca, cb := Dial(sc, a, b)
		var lat time.Duration
		env.Go("rx", func(p *sim.Proc) {
			cb.Recv(p)
			lat = time.Duration(p.Now())
		})
		env.Go("tx", func(p *sim.Proc) { ca.Send(p, []byte{1}) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return lat
	}
	tcp := oneWay(TCP)
	for _, sc := range []Scheme{BSDP, ZSDP, PSDP} {
		if got := oneWay(sc); got >= tcp {
			t.Fatalf("%v 1-byte latency %v not below TCP %v", sc, got, tcp)
		}
	}
}

func TestBandwidthHelperSane(t *testing.T) {
	// Guard against the harness itself reporting nonsense.
	bw := bandwidth(t, BSDP, 8192, 100)
	if bw <= 0 || bw > 1e10 {
		t.Fatalf("bandwidth %v implausible", bw)
	}
}

func TestDialDistinctEndpoints(t *testing.T) {
	env, a, b := pair(1)
	_ = env
	ca, cb := Dial(TCP, a, b)
	if ca == cb || ca.send != cb.recv || ca.recv != cb.send {
		t.Fatal("endpoints mis-wired")
	}
	if ca.scheme != TCP {
		t.Fatal("scheme not recorded")
	}
}

func ExampleScheme_String() {
	fmt.Println(AZSDP)
	// Output: AZ-SDP
}

// TestSocketsSteadyStateAllocationFree asserts the service-layer
// acceptance criterion: once the buffer pool, delivery FIFOs, rendezvous
// free list, and waiter free lists are warm, a streaming send/recv loop
// using RecvMsg+Release allocates nothing per message.
func TestSocketsSteadyStateAllocationFree(t *testing.T) {
	for _, sc := range []Scheme{BSDP, ZSDP} {
		t.Run(sc.String(), func(t *testing.T) {
			env, a, b := pair(1)
			_ = a
			ca, cb := Dial(sc, a, b)
			payload := make([]byte, 512)
			env.GoDaemon("rx", func(p *sim.Proc) {
				for {
					m, err := cb.RecvMsg(p)
					if err != nil {
						return
					}
					m.Release()
				}
			})
			env.GoDaemon("tx", func(p *sim.Proc) {
				for {
					if err := ca.Send(p, payload); err != nil {
						return
					}
					p.Sleep(5 * time.Microsecond)
				}
			})
			limit := sim.Time(0)
			step := func() {
				limit = limit.Add(time.Millisecond)
				if err := env.RunUntil(limit); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm pools and free lists
			allocs := testing.AllocsPerRun(20, step)
			// Each run covers dozens of messages; allow a little runtime
			// noise but catch any per-message allocation.
			if allocs > 2 {
				t.Errorf("%v steady state allocates %.1f allocs per 1ms step, want ~0", sc, allocs)
			}
			env.Shutdown()
		})
	}
}

// TestAZSDPDeliversInSendOrder streams messages of mixed sizes over two
// AZ-SDP connections that share one NIC, each with up to window transfers
// in flight: every message reaches its receiver in send order, so
// deliverInOrder never finds a transfer out of its turn.
func TestAZSDPDeliversInSendOrder(t *testing.T) {
	env, a, b := pair(1)
	defer env.Shutdown()
	sizes := []int{1, 64 << 10, 512, 256 << 10, 8 << 10, 3, 128 << 10, 1 << 10}
	const n = 4 * window
	for c := 0; c < 2; c++ {
		ca, cb := Dial(AZSDP, a, b)
		env.Go(fmt.Sprintf("tx%d", c), func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				msg := make([]byte, sizes[(i+c)%len(sizes)])
				msg[0] = byte(i)
				if err := ca.Send(p, msg); err != nil {
					t.Error(err)
					return
				}
			}
		})
		env.Go(fmt.Sprintf("rx%d", c), func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				got, err := cb.Recv(p)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != sizes[(i+c)%len(sizes)] || got[0] != byte(i) {
					t.Errorf("connection %d: message %d arrived as %d bytes tagged %d", c, i, len(got), got[0])
					return
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAZSDPOutOfTurnCompletionPanics: a transfer completing before an
// earlier one is a model bug, and deliverInOrder says so instead of
// reordering.
func TestAZSDPOutOfTurnCompletionPanics(t *testing.T) {
	env, a, b := pair(1)
	defer env.Shutdown()
	ca, _ := Dial(AZSDP, a, b)
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "transfer 1 completed before transfer 0") {
			t.Fatalf("recovered %v; want the out-of-turn panic", r)
		}
	}()
	ca.send.deliverInOrder(1, wireMsg{last: true})
}

// TestTracedCreditStalls opens traced runs whose receiver sleeps before
// its first Recv while the sender sends more messages than there are
// credits: the sender's waits must reach the registry with a nonzero
// count and wait. BSDP spends a credit per 8 KiB chunk. P-SDP spends one
// per frame and bytes of its 16-chunk pool per chunk, so full chunks
// stall it on the pool first and spaced 1 KiB messages, a frame each, on
// credits.
func TestTracedCreditStalls(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		size   int
		kind   trace.StallKind
	}{
		{BSDP, bufSize, trace.StallCredits},
		{PSDP, bufSize / 8, trace.StallCredits},
		{PSDP, bufSize, trace.StallPool},
	} {
		reg := trace.NewRegistry()
		env := runtime.ServiceOptions{Trace: reg}.NewEnv()
		nw := verbs.NewNetwork(env, fabric.DefaultParams())
		a := nw.Attach(cluster.NewNode(env, 0, 4, 1<<30))
		b := nw.Attach(cluster.NewNode(env, 1, 4, 1<<30))
		ca, cb := Dial(tc.scheme, a, b)
		const msgs = credits + 8
		env.Go("tx", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				if err := ca.Send(p, make([]byte, tc.size)); err != nil {
					t.Error(err)
				}
				p.Sleep(10 * time.Microsecond) // one message a frame: the pump packs none
			}
		})
		env.Go("rx", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			for i := 0; i < msgs; i++ {
				if _, err := cb.Recv(p); err != nil {
					t.Error(err)
				}
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		s := reg.Snapshot()
		var st trace.StallStats
		if i := slices.IndexFunc(s.Schemes, func(sc trace.SchemeStats) bool { return sc.Name == tc.scheme.String() }); i >= 0 {
			st = s.Schemes[i].Stalls[tc.kind]
		}
		if s.Stalls() == 0 || st.Count == 0 || st.Wait == 0 {
			t.Errorf("%s, %d B messages: Stalls() = %d, %s stalls %+v; want a nonzero count and wait",
				tc.scheme, tc.size, s.Stalls(), tc.kind, st)
		}
	}
}
