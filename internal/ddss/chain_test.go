package ddss

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"ngdc/internal/sim"
)

// TestPutTimelinePinned pins what a Null or Write put does on the
// timeline: the instant it starts and returns, the events the run
// executes meanwhile and the segment's bytes afterwards (header and data),
// for a remote and a home segment, uncontended and with the segment lock
// held by another client for 5 µs so the lockRetry loop runs. The
// constants were produced by the blocking implementation, one park per
// step; edit none of them: a diff is a virtual-time change.
func TestPutTimelinePinned(t *testing.T) {
	var got strings.Builder
	for _, coh := range []Coherence{Null, Write} {
		for _, home := range []int{0, 1} { // remote to client 1, then home
			for _, held := range []bool{false, true} {
				env, ss, _ := testSubstrate(1, 3)
				data := bytes.Repeat([]byte{byte(0x10*home + 0xA1)}, 12)
				put := func(p *sim.Proc, h *Handle) {
					at, before := p.Now(), env.Stats().EventsProcessed
					_, err := h.Put(p, data)
					fmt.Fprintf(&got, "%v home=%d held=%v: %d..%d events=%d err=%v seg=%x\n",
						coh, home, held, at, p.Now(), env.Stats().EventsProcessed-before, err, h.seg.mr.Bytes())
				}
				env.Go("w", func(p *sim.Proc) {
					h, err := ss.Client(1).Allocate(p, "seg", 16, coh, home)
					if err != nil {
						t.Fatal(err)
					}
					if !held {
						put(p, h)
						return
					}
					// Client 2 takes the lock one-sidedly, starts the put
					// behind it and releases 5 µs later.
					hh, err := ss.Client(2).Open("seg")
					if err != nil {
						t.Fatal(err)
					}
					if err := hh.acquireLock(p); err != nil {
						t.Fatal(err)
					}
					env.Go("put", func(p *sim.Proc) { put(p, h) })
					p.Sleep(5 * time.Microsecond)
					if err := hh.releaseLock(p); err != nil {
						t.Fatal(err)
					}
				})
				if err := env.Run(); err != nil {
					t.Fatal(err)
				}
				env.Shutdown()
			}
		}
	}
	if got.String() != putTimeline {
		t.Errorf("put timeline moved (a virtual-time change):\n%s\nwant:\n%s", got.String(), putTimeline)
	}
}

const putTimeline = `Null home=0 held=false: 1800..5613 events=3 err=<nil> seg=0000000000000000000000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Null home=0 held=true: 9800..13613 events=3 err=<nil> seg=0300000000000000000000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Null home=1 held=false: 1800..2104 events=2 err=<nil> seg=0000000000000000000000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Null home=1 held=true: 9800..10104 events=2 err=<nil> seg=0300000000000000000000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Write home=0 held=false: 1800..17121 events=7 err=<nil> seg=0000000000000000000000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Write home=0 held=true: 9800..35121 events=13 err=<nil> seg=0000000000000000000000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Write home=1 held=false: 1800..2206 events=4 err=<nil> seg=0000000000000000000000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Write home=1 held=true: 9800..18606 events=15 err=<nil> seg=0000000000000000000000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
`

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

// TestPutChainFailsWhereTheBlockingPutDid: a Null or Write put refused
// before any virtual time passes returns its error at the call instant
// without parking or an event; one whose first one-sided operation is
// refused by Device.Issue's validation (an unknown rkey: the data write
// for Null, the lock CAS for Write) returns that error one IPC charge
// later, handed back from the callback it failed in. The errors and
// instants are those of a process that slept through the charge and then
// called the blocking verbs operation.
func TestPutChainFailsWhereTheBlockingPutDid(t *testing.T) {
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
				op := map[Coherence]string{Null: "write", Write: "cas"}[coh]
				cases := []struct {
					name  string
					h     *Handle
					data  int
					want  string
					after sim.Time // virtual time the Put takes
				}{
					{"freed segment", freed, 8, `ddss: put "freed": segment freed`, 0},
					{"oversized data", unreg, 65, `ddss: put "unreg": 65 bytes exceed segment size 64`, 0},
					{"unknown rkey", unreg, 8, fmt.Sprintf("verbs: %s on node 0 key %d: invalid rkey", op, unreg.seg.mr.Addr().Key),
						sim.Time(IPCOverhead)},
				}
				for _, tc := range cases {
					before, at := env.Stats(), p.Now()
					_, err := tc.h.Put(p, make([]byte, tc.data))
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

// TestPutAsyncIsTheBlockingPut: the issue form writes what the blocking
// Put writes, remote and home, taking as long, and refuses the models
// that need more than one write.
func TestPutAsyncIsTheBlockingPut(t *testing.T) {
	env, ss, _ := testSubstrate(1, 2)
	defer env.Shutdown()
	env.Go("w", func(p *sim.Proc) {
		for _, coh := range []Coherence{Null, Write} {
			for _, home := range []int{0, 1} { // remote, then home to client 1
				h, err := ss.Client(1).Allocate(p, fmt.Sprintf("%v%d", coh, home), 64, coh, home)
				if err != nil {
					t.Fatal(err)
				}
				at := p.Now()
				if _, err := h.Put(p, bytes.Repeat([]byte{0x11}, 64)); err != nil {
					t.Fatal(err)
				}
				blocking := p.Now() - at
				want := bytes.Repeat([]byte{0xA5}, 64)
				var op PutOp
				var await sim.Await
				at = p.Now()
				h.PutAsync(want, &op, func(e error) {
					err = e
					await.Done()
				})
				await.Wait(p, "put async")
				got := h.seg.mr.Bytes()[hdrSize:]
				if err != nil || !bytes.Equal(got, want) || p.Now()-at != blocking {
					t.Errorf("%v home %d: PutAsync err=%v equal=%v took %v, the blocking Put %v", coh, home, err, bytes.Equal(got, want), p.Now()-at, blocking)
				}
			}
		}
		for _, coh := range []Coherence{Read, Strict, Version, Delta, Temporal} {
			h, err := ss.Client(1).Allocate(p, coh.String(), 64, coh, 0)
			if err != nil {
				t.Fatal(err)
			}
			var op PutOp
			var refused error
			h.PutAsync(make([]byte, 8), &op, func(e error) { refused = e })
			if want := fmt.Sprintf("ddss: put %q: %v is not a one-write model", coh.String(), coh); refused == nil || refused.Error() != want {
				t.Errorf("PutAsync on a %v segment: %v, want %s", coh, refused, want)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
