package multicast

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/runtime"
	"ngdc/internal/sim"
	"ngdc/internal/verbs"
)

func group(t testing.TB, strategy Strategy, n int) (*sim.Env, *Group, []*cluster.Node) {
	t.Helper()
	env := sim.NewEnv(1)
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	var nodes []*cluster.Node
	for i := 0; i < n; i++ {
		nodes = append(nodes, cluster.NewNode(env, i, 2, 1<<20))
	}
	return env, NewGroup(nw, nodes, Options{Name: "g", Strategy: strategy}), nodes
}

func TestEveryMemberDeliversExactlyOnce(t *testing.T) {
	for _, strategy := range []Strategy{Serial, Binomial} {
		for _, n := range []int{1, 2, 3, 5, 8, 13, 16} {
			env, g, nodes := group(t, strategy, n)
			got := make([]int, n)
			for rank, node := range nodes {
				rank := rank
				sub := g.Subscribe(node.ID)
				env.GoDaemon(fmt.Sprintf("sink%d", rank), func(p *sim.Proc) {
					for {
						msg, ok := sub.Recv(p)
						if !ok {
							return
						}
						if string(msg) != "payload" {
							t.Errorf("rank %d got %q", rank, msg)
						}
						got[rank]++
					}
				})
			}
			env.Go("root", func(p *sim.Proc) { g.Send(p, []byte("payload")) })
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			env.Shutdown()
			for rank, c := range got {
				if c != 1 {
					t.Fatalf("%v n=%d: rank %d delivered %d times", strategy, n, rank, c)
				}
			}
		}
	}
}

func TestBinomialBeatsSerialAtScale(t *testing.T) {
	// With payloads large enough that wire serialization matters, the
	// root's O(n) sends dominate serial dissemination.
	serial, err := MeasureLatency(Serial, 32, 4<<10, 1, runtime.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	binom, err := MeasureLatency(Binomial, 32, 4<<10, 1, runtime.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if binom >= serial {
		t.Fatalf("binomial %v not below serial %v at 32 nodes", binom, serial)
	}
	if float64(serial)/float64(binom) < 2 {
		t.Fatalf("binomial speedup only %.1fx at 32 nodes", float64(serial)/float64(binom))
	}
}

func TestLatencyGrowsLogarithmically(t *testing.T) {
	l8, err := MeasureLatency(Binomial, 8, 64, 1, runtime.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l64, err := MeasureLatency(Binomial, 64, 64, 1, runtime.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 8 -> 64 members is 3 extra rounds: latency should roughly double,
	// not grow 8x.
	if l64 > 3*l8 {
		t.Fatalf("binomial latency grew from %v (8) to %v (64); not logarithmic", l8, l64)
	}
}

func TestMultipleMessagesInOrder(t *testing.T) {
	env, g, nodes := group(t, Binomial, 6)
	defer env.Shutdown()
	var got [][]byte
	sub := g.Subscribe(nodes[5].ID)
	env.GoDaemon("sink", func(p *sim.Proc) {
		for {
			msg, ok := sub.Recv(p)
			if !ok {
				return
			}
			got = append(got, msg)
		}
	})
	env.Go("root", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			g.Send(p, []byte{byte(i)})
			p.Sleep(100 * time.Microsecond)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d messages", len(got))
	}
	for i, m := range got {
		if m[0] != byte(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestSubscribeUnknownNodePanics(t *testing.T) {
	env, g, _ := group(t, Serial, 2)
	defer env.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown node")
		}
	}()
	g.Subscribe(99)
}

func TestGroupSize(t *testing.T) {
	env, g, _ := group(t, Serial, 7)
	defer env.Shutdown()
	if len(g.devs) != 7 {
		t.Fatalf("size = %d", len(g.devs))
	}
	if Serial.String() != "serial" || Binomial.String() != "binomial" {
		t.Fatal("strategy names wrong")
	}
}

// Property: for any group size, binomial dissemination reaches all
// members exactly once (tree coverage is a partition).
func TestPropertyBinomialCoverage(t *testing.T) {
	f := func(sz uint8) bool {
		n := int(sz)%40 + 1
		env, g, nodes := group(t, Binomial, n)
		defer env.Shutdown()
		counts := make([]int, n)
		for rank, node := range nodes {
			rank := rank
			sub := g.Subscribe(node.ID)
			env.GoDaemon(fmt.Sprintf("sink%d", rank), func(p *sim.Proc) {
				for {
					if _, ok := sub.Recv(p); !ok {
						return
					}
					counts[rank]++
				}
			})
		}
		env.Go("root", func(p *sim.Proc) { g.Send(p, []byte("x")) })
		if err := env.Run(); err != nil {
			return false
		}
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return int(g.Delivered) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
