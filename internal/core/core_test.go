package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ngdc/internal/ddss"
	"ngdc/internal/dlm"
	"ngdc/internal/monitor"
	"ngdc/internal/sim"
	"ngdc/internal/sockets"
)

func TestDefaultConfigBuilds(t *testing.T) {
	f := New(DefaultConfig())
	defer f.Shutdown()
	if len(f.Cluster.Nodes) != 8 || f.Node(0) == nil || f.Device(7) == nil {
		t.Fatal("cluster mis-built")
	}
	if f.Node(99) != nil {
		t.Fatal("unknown node returned")
	}
}

func TestZeroValueConfigDefaults(t *testing.T) {
	f := New(Config{Nodes: 2})
	defer f.Shutdown()
	if f.Node(0).Cores() != 2 || f.Node(0).MemFree() != 64<<20 {
		t.Fatal("defaults not applied")
	}
}

func TestAllThreeLayersInteroperate(t *testing.T) {
	// One scenario touching every layer: a lock-protected shared counter
	// (layer 2), messages over AZ-SDP (layer 1), and monitoring (layer 3).
	f := New(DefaultConfig())
	defer f.Shutdown()
	st := f.Monitor(monitor.RDMASync, 0, []int{1, 2}, 50*time.Millisecond)
	st.Start()
	ca, cb := f.Dial(sockets.AZSDP, 1, 2)

	var finalCount uint64
	f.GoDaemon("echo", func(p *sim.Proc) {
		for {
			msg, err := cb.Recv(p)
			if err != nil {
				return
			}
			if err := cb.Send(p, msg); err != nil {
				return
			}
		}
	})
	f.Go("app", func(p *sim.Proc) {
		c := f.Sharing.Client(1)
		h, err := c.Allocate(p, "counter", 8, ddss.Strict, 0)
		if err != nil {
			t.Error(err)
			return
		}
		lk := f.Locks.Client(1)
		for i := 0; i < 3; i++ {
			lk.Lock(p, 0, dlm.Exclusive)
			buf := make([]byte, 8)
			if _, err := h.Get(p, buf); err != nil {
				t.Error(err)
			}
			buf[0]++
			if _, err := h.Put(p, buf); err != nil {
				t.Error(err)
			}
			lk.Unlock(p, 0, dlm.Exclusive)
			if err := ca.Send(p, []byte("ping")); err != nil {
				t.Error(err)
			}
			if _, err := ca.Recv(p); err != nil {
				t.Error(err)
			}
		}
		buf := make([]byte, 8)
		if _, err := h.Get(p, buf); err != nil {
			t.Error(err)
		}
		finalCount = uint64(buf[0])
		snap := st.Sample(p, 0)
		if snap.Connections == 0 {
			t.Error("monitoring saw no connections on node 1")
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if finalCount != 3 {
		t.Fatalf("counter = %d, want 3", finalCount)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero nodes did not panic")
		}
	}()
	New(Config{})
}

// TestMoneyConservation drives the whole stack at once: account balances
// live in a Strict-coherence DDSS segment, transfers are guarded by the
// N-CoSED lock manager, and random workers on random nodes move money
// around. The total must be conserved exactly — any lost lock grant,
// torn write or double admission would show up here.
func TestMoneyConservation(t *testing.T) {
	const (
		accounts = 8
		initial  = 1000
		workers  = 6
		transfer = 25
	)
	f := New(Config{Nodes: 8, NumLocks: accounts})
	defer f.Shutdown()
	rng := rand.New(rand.NewSource(42))

	f.Go("setup", func(p *sim.Proc) {
		c := f.Sharing.Client(0)
		buf := make([]byte, 8)
		for a := 0; a < accounts; a++ {
			h, err := c.Allocate(p, acctKey(a), 8, ddss.Strict, a%len(f.Cluster.Nodes))
			if err != nil {
				t.Error(err)
				return
			}
			binary.LittleEndian.PutUint64(buf, initial)
			if _, err := h.Put(p, buf); err != nil {
				t.Error(err)
				return
			}
		}
		for w := 0; w < workers; w++ {
			w := w
			node := f.Node(1 + w%(len(f.Cluster.Nodes)-1))
			f.Env.Go(fmt.Sprintf("worker%d", w), func(p *sim.Proc) {
				sh := f.Sharing.Client(node.ID)
				lk := f.Locks.Client(node.ID)
				for i := 0; i < 15; i++ {
					from := rng.Intn(accounts)
					to := rng.Intn(accounts)
					if from == to {
						continue
					}
					// Lock ordering prevents deadlock.
					lo, hi := from, to
					if lo > hi {
						lo, hi = hi, lo
					}
					lk.Lock(p, lo, dlm.Exclusive)
					lk.Lock(p, hi, dlm.Exclusive)
					move(t, p, sh, from, to, transfer)
					lk.Unlock(p, hi, dlm.Exclusive)
					lk.Unlock(p, lo, dlm.Exclusive)
					p.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
			})
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	// Audit.
	env := f.Env
	var total uint64
	env.Go("audit", func(p *sim.Proc) {
		c := f.Sharing.Client(0)
		buf := make([]byte, 8)
		for a := 0; a < accounts; a++ {
			h, err := c.Open(acctKey(a))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := h.Get(p, buf); err != nil {
				t.Error(err)
				return
			}
			total += binary.LittleEndian.Uint64(buf)
		}
	})
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("money not conserved: total %d, want %d", total, accounts*initial)
	}
}

func acctKey(a int) string { return fmt.Sprintf("acct-%d", a) }

// move transfers amount between two accounts under the caller's locks.
func move(t *testing.T, p *sim.Proc, sh *ddss.Client, from, to int, amount uint64) {
	buf := make([]byte, 8)
	hf, err := sh.Open(acctKey(from))
	if err != nil {
		t.Error(err)
		return
	}
	ht, err := sh.Open(acctKey(to))
	if err != nil {
		t.Error(err)
		return
	}
	if _, err := hf.Get(p, buf); err != nil {
		t.Error(err)
		return
	}
	bal := binary.LittleEndian.Uint64(buf)
	if bal < amount {
		return // insufficient funds: skip, conservation unaffected
	}
	binary.LittleEndian.PutUint64(buf, bal-amount)
	if _, err := hf.Put(p, buf); err != nil {
		t.Error(err)
		return
	}
	if _, err := ht.Get(p, buf); err != nil {
		t.Error(err)
		return
	}
	binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+amount)
	if _, err := ht.Put(p, buf); err != nil {
		t.Error(err)
	}
}
