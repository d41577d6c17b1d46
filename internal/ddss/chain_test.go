package ddss

import (
	"bytes"
	"fmt"
	"testing"

	"ngdc/internal/sim"
)

// TestGetChainFailsWhereTheBlockingGetDid: a single-read Get refused
// before any virtual time passes returns its error at the call instant
// without parking; one whose read is refused by Device.Issue's validation
// (the segment's region deregistered under the handle: an unknown rkey)
// returns the read's error one IPC charge later, handed back from the
// callback the read failed in. The errors and instants are what the
// blocking Get (a Sleep, then Device.Read) returned.
func TestGetChainFailsWhereTheBlockingGetDid(t *testing.T) {
	for _, coh := range []Coherence{Null, Write} {
		t.Run(coh.String(), func(t *testing.T) {
			env, ss, _ := testSubstrate(1, 2)
			defer env.Shutdown()
			env.Go("w", func(p *sim.Proc) {
				c := ss.Client(1)
				alloc := func(key string) *Handle {
					h, err := c.Allocate(p, key, 64, coh, 0)
					if err != nil {
						t.Fatal(err)
					}
					return h
				}
				freed, unreg := alloc("freed"), alloc("unreg")
				if err := freed.Free(p); err != nil {
					t.Fatal(err)
				}
				unreg.seg.mr.Deregister()
				cases := []struct {
					name  string
					h     *Handle
					buf   int
					want  string
					after sim.Time // virtual time the Get takes
				}{
					{"freed segment", freed, 8, `ddss: get "freed": segment freed`, 0},
					{"oversized buffer", unreg, 65, `ddss: get "unreg": 65 bytes exceed segment size 64`, 0},
					{"unknown rkey", unreg, 8, fmt.Sprintf("verbs: read on node 0 key %d: invalid rkey", unreg.seg.mr.Addr().Key),
						sim.Time(IPCOverhead)},
				}
				for _, tc := range cases {
					before, at := env.Stats(), p.Now()
					_, err := tc.h.Get(p, make([]byte, tc.buf))
					if err == nil || err.Error() != tc.want {
						t.Errorf("%s: err = %v, want %s", tc.name, err, tc.want)
					}
					if took := p.Now() - at; took != tc.after {
						t.Errorf("%s: returned after %v, want %v", tc.name, took, tc.after)
					}
					if st := env.Stats(); tc.after == 0 && st != before {
						t.Errorf("%s: an inline refusal cost %+v → %+v", tc.name, before, st)
					}
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGetAsyncIsTheBlockingGet: the issue form reads what the blocking Get
// reads, local and remote, at the same instant, and refuses the models
// that need more than one read.
func TestGetAsyncIsTheBlockingGet(t *testing.T) {
	env, ss, _ := testSubstrate(1, 2)
	defer env.Shutdown()
	want := bytes.Repeat([]byte{0xA5}, 64)
	env.Go("w", func(p *sim.Proc) {
		for _, home := range []int{0, 1} { // remote, then local to client 1
			h, err := ss.Client(1).Allocate(p, fmt.Sprintf("seg%d", home), 64, Null, home)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Put(p, want); err != nil {
				t.Fatal(err)
			}
			at := p.Now()
			if _, err := h.Get(p, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
			blocking := p.Now() - at
			var g GetOp
			var await sim.Await
			got := make([]byte, 64)
			at = p.Now()
			h.GetAsync(got, &g, func(e error) {
				err = e
				await.Done()
			})
			await.Wait(p, "get async")
			if err != nil || !bytes.Equal(got, want) || p.Now()-at != blocking {
				t.Errorf("home %d: GetAsync err=%v equal=%v took %v, the blocking Get %v", home, err, bytes.Equal(got, want), p.Now()-at, blocking)
			}
		}
		h, err := ss.Client(1).Allocate(p, "ver", 64, Version, 0)
		if err != nil {
			t.Fatal(err)
		}
		var g GetOp
		var refused error
		h.GetAsync(make([]byte, 8), &g, func(e error) { refused = e })
		if refused == nil || refused.Error() != `ddss: get "ver": Version is not a single-read model` {
			t.Errorf("GetAsync on a Version segment: %v", refused)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
