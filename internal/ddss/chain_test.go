package ddss

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"ngdc/internal/sim"
)

// TestOpTimelinePinned pins what every operation does on the timeline:
// for each coherence model, put and get, a remote and a home segment, the
// instant an operation starts and returns, the events the run executes
// meanwhile, the version and error it returns, the caller's buffer and
// the segment's bytes (header and data) afterwards. Two scenarios each:
// two back-to-back operations (the second get of a Temporal segment is a
// cache hit), and one started while client 2 holds the segment lock word
// for 5 µs and puts from a second process at +1 µs — a held lock retries,
// a remote Read or Version get sees a torn read and rereads. GetDelta at
// versions 1, 3, 6 and 7 after six puts, and WaitVersion against a
// producer, are pinned the same way. The constants were produced by the
// blocking implementation; edit none of them: a diff is a virtual-time
// change.
func TestOpTimelinePinned(t *testing.T) {
	var got strings.Builder
	run := func(body func(env *sim.Env, ss *Substrate, p *sim.Proc)) {
		env, ss, _ := testSubstrate(1, 3)
		env.Go("w", func(p *sim.Proc) { body(env, ss, p) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
	}
	open := func(p *sim.Proc, ss *Substrate, coh Coherence, home int) (h, h2 *Handle) {
		h, err := ss.Client(1).Allocate(p, "seg", 16, coh, home)
		if err != nil {
			t.Fatal(err)
		}
		if h2, err = ss.Client(2).Open("seg"); err != nil {
			t.Fatal(err)
		}
		return h, h2
	}
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, 12) }
	for _, coh := range []Coherence{Null, Write, Read, Strict, Version, Delta, Temporal} {
		for _, kind := range []string{"put", "get"} {
			for _, home := range []int{0, 1} { // remote to client 1, then home
				for _, held := range []bool{false, true} {
					run(func(env *sim.Env, ss *Substrate, p *sim.Proc) {
						h, h2 := open(p, ss, coh, home)
						if _, err := h2.Put(p, fill(0xC0)); err != nil {
							t.Fatal(err)
						}
						op := func(p *sim.Proc, label string, b byte) {
							at, before := p.Now(), env.Stats().EventsProcessed
							buf := fill(b)
							var v uint64
							var err error
							if kind == "put" {
								v, err = h.Put(p, buf)
							} else {
								v, err = h.Get(p, buf)
							}
							fmt.Fprintf(&got, "%v %s home=%d %s: %d..%d events=%d v=%d err=%v buf=%x seg=%x\n",
								coh, kind, home, label, at, p.Now(), env.Stats().EventsProcessed-before, v, err, buf, h.seg.mr.Bytes())
						}
						if !held {
							op(p, "first", 0xA1)
							op(p, "second", 0xA2)
							return
						}
						// Client 2 takes the lock one-sidedly, starts the
						// operation behind it and a put of its own 1 µs
						// later, and releases the lock 5 µs later.
						dev2, addr := ss.nw.Device(2), h.seg.mr.Addr()
						if _, err := dev2.CompareSwap(p, addr, hdrLock, 0, 3); err != nil {
							t.Fatal(err)
						}
						env.Go("op", func(p *sim.Proc) { op(p, "held", 0xB1) })
						env.Go("put2", func(p *sim.Proc) {
							p.Sleep(time.Microsecond)
							if _, err := h2.Put(p, fill(0xD2)); err != nil {
								t.Error(err)
							}
						})
						p.Sleep(5 * time.Microsecond)
						if err := dev2.Write(p, addr, hdrLock, make([]byte, 8)); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
	for _, home := range []int{0, 1} {
		run(func(env *sim.Env, ss *Substrate, p *sim.Proc) {
			h, _ := open(p, ss, Delta, home)
			for i := 1; i <= 6; i++ {
				if _, err := h.Put(p, fill(byte(0x10*i))); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range []uint64{1, 3, 6, 7} {
				at, before := p.Now(), env.Stats().EventsProcessed
				buf := fill(0xEE)
				err := h.GetDelta(p, buf, v)
				fmt.Fprintf(&got, "Delta getdelta home=%d v=%d: %d..%d events=%d err=%v buf=%x\n",
					home, v, at, p.Now(), env.Stats().EventsProcessed-before, err, buf)
			}
		})
		run(func(env *sim.Env, ss *Substrate, p *sim.Proc) {
			h, h2 := open(p, ss, Version, home)
			env.Go("producer", func(p *sim.Proc) {
				for i := 1; i <= 8; i++ {
					p.Sleep(3 * time.Microsecond)
					if _, err := h2.Put(p, fill(byte(i))); err != nil {
						t.Error(err)
					}
				}
			})
			at, before := p.Now(), env.Stats().EventsProcessed
			v, err := h.WaitVersion(p, 8, 2*time.Microsecond)
			fmt.Fprintf(&got, "Version waitversion home=%d: %d..%d events=%d v=%d err=%v\n",
				home, at, p.Now(), env.Stats().EventsProcessed-before, v, err)
		})
	}
	if got.String() != opTimeline {
		t.Errorf("operation timeline moved (a virtual-time change):\n%s\nwant:\n%s", got.String(), opTimeline)
	}
}

const opTimeline = `Null put home=0 first: 5613..9426 events=3 v=0 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000000000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Null put home=0 second: 9426..13239 events=3 v=0 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000000000000000000000000000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Null put home=0 held: 13613..17426 events=7 v=0 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0300000000000000000000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Null put home=1 first: 5613..5917 events=2 v=0 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000000000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Null put home=1 second: 5917..6221 events=2 v=0 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000000000000000000000000000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Null put home=1 held: 13613..13917 events=3 v=0 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0300000000000000000000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Null get home=0 first: 5613..11926 events=4 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Null get home=0 second: 11926..18239 events=4 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Null get home=0 held: 13613..19926 events=11 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0300000000000000000000000000000000000000000000000000000000000000d2d2d2d2d2d2d2d2d2d2d2d200000000
Null get home=1 first: 5613..5917 events=2 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Null get home=1 second: 5917..6221 events=2 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Null get home=1 held: 13613..13917 events=3 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0300000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Write put home=0 first: 17121..32442 events=7 v=0 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000000000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Write put home=0 second: 32442..47763 events=7 v=0 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000000000000000000000000000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Write put home=0 held: 25121..50442 events=23 v=0 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0000000000000000000000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Write put home=1 first: 17121..17527 events=4 v=0 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000000000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Write put home=1 second: 17527..17933 events=4 v=0 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000000000000000000000000000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Write put home=1 held: 25121..33927 events=19 v=0 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0000000000000000000000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Write get home=0 first: 17121..23434 events=4 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Write get home=0 second: 23434..29747 events=4 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Write get home=0 held: 25121..31434 events=10 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0300000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Write get home=1 first: 17121..17425 events=2 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Write get home=1 second: 17425..17729 events=2 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Write get home=1 held: 25121..25425 events=3 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0300000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Read put home=0 first: 13613..25426 events=5 v=2 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000020000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Read put home=0 second: 25426..37239 events=5 v=3 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000030000000000000000000000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Read put home=0 held: 21613..33426 events=14 v=2 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0000000000000000030000000000000000000000000000000000000000000000d2d2d2d2d2d2d2d2d2d2d2d200000000
Read put home=1 first: 13613..14017 events=3 v=2 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000020000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Read put home=1 second: 14017..14421 events=3 v=3 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000030000000000000000000000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Read put home=1 held: 21613..22017 events=4 v=2 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0300000000000000020000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Read get home=0 first: 13613..31942 events=10 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Read get home=0 second: 31942..50271 events=10 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Read get home=0 held: 21613..57971 events=29 v=2 err=<nil> buf=d2d2d2d2d2d2d2d2d2d2d2d2 seg=0000000000000000020000000000000000000000000000000000000000000000d2d2d2d2d2d2d2d2d2d2d2d200000000
Read get home=1 first: 13613..13921 events=4 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Read get home=1 second: 13921..14229 events=4 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Read get home=1 held: 21613..21921 events=5 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0300000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Strict put home=0 first: 25121..48442 events=9 v=2 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000020000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Strict put home=0 second: 48442..71763 events=9 v=3 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000030000000000000000000000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Strict put home=0 held: 33121..66442 events=27 v=2 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0000000000000000020000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Strict put home=1 first: 25121..25627 events=5 v=2 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000020000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Strict put home=1 second: 25627..26133 events=5 v=3 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000030000000000000000000000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Strict put home=1 held: 33121..42027 events=20 v=2 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0000000000000000020000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Strict get home=0 first: 25121..48950 events=11 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Strict get home=0 second: 48950..72779 events=11 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Strict get home=0 held: 33121..66950 events=29 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Strict get home=1 first: 25121..25529 events=5 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Strict get home=1 second: 25529..25937 events=5 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Strict get home=1 held: 33121..41929 events=20 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Version put home=0 first: 13613..25426 events=5 v=2 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000020000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Version put home=0 second: 25426..37239 events=5 v=3 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000030000000000000000000000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Version put home=0 held: 21613..33426 events=14 v=2 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0000000000000000030000000000000000000000000000000000000000000000d2d2d2d2d2d2d2d2d2d2d2d200000000
Version put home=1 first: 13613..14017 events=3 v=2 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000020000000000000000000000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Version put home=1 second: 14017..14421 events=3 v=3 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000030000000000000000000000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Version put home=1 held: 21613..22017 events=4 v=2 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0300000000000000020000000000000000000000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Version get home=0 first: 13613..31942 events=10 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Version get home=0 second: 31942..50271 events=10 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Version get home=0 held: 21613..57971 events=29 v=2 err=<nil> buf=d2d2d2d2d2d2d2d2d2d2d2d2 seg=0000000000000000020000000000000000000000000000000000000000000000d2d2d2d2d2d2d2d2d2d2d2d200000000
Version get home=1 first: 13613..13921 events=4 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Version get home=1 second: 13921..14229 events=4 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0000000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Version get home=1 held: 21613..21921 events=5 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=0300000000000000010000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Delta put home=0 first: 13613..25426 events=5 v=2 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000a1a1a1a1a1a1a1a1a1a1a1a10000000000000000000000000000000000000000
Delta put home=0 second: 25426..37239 events=5 v=3 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=000000000000000003000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000a1a1a1a1a1a1a1a1a1a1a1a100000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Delta put home=0 held: 21613..33426 events=14 v=2 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=000000000000000003000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000b1b1b1b1b1b1b1b1b1b1b1b10000000000000000000000000000000000000000
Delta put home=1 first: 13613..14017 events=3 v=2 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000a1a1a1a1a1a1a1a1a1a1a1a10000000000000000000000000000000000000000
Delta put home=1 second: 14017..14421 events=3 v=3 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=000000000000000003000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000a1a1a1a1a1a1a1a1a1a1a1a100000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Delta put home=1 held: 21613..22017 events=4 v=2 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=030000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000b1b1b1b1b1b1b1b1b1b1b1b10000000000000000000000000000000000000000
Delta get home=0 first: 13613..25934 events=7 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c0000000000000000000000000000000000000000000000000000000000000000000000000
Delta get home=0 second: 25934..38255 events=7 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c0000000000000000000000000000000000000000000000000000000000000000000000000
Delta get home=0 held: 21613..33934 events=16 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=000000000000000002000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c0000000000000000000000000000000000000000000000000000000000000000000000000
Delta get home=1 first: 13613..13919 events=3 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c0000000000000000000000000000000000000000000000000000000000000000000000000
Delta get home=1 second: 13919..14225 events=3 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c0000000000000000000000000000000000000000000000000000000000000000000000000
Delta get home=1 held: 21613..21919 events=4 v=1 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=030000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c0000000000000000000000000000000000000000000000000000000000000000000000000
Temporal put home=0 first: 9121..16442 events=5 v=0 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=0000000000000000000000000000000086320000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Temporal put home=0 second: 16442..23763 events=5 v=0 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=000000000000000000000000000000001f4f0000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Temporal put home=0 held: 17121..24442 events=13 v=0 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=03000000000000000000000000000000c6510000000000000000000000000000d2d2d2d2d2d2d2d2d2d2d2d200000000
Temporal put home=1 first: 9121..9427 events=3 v=0 err=<nil> buf=a1a1a1a1a1a1a1a1a1a1a1a1 seg=00000000000000000000000000000000d1240000000000000000000000000000a1a1a1a1a1a1a1a1a1a1a1a100000000
Temporal put home=1 second: 9427..9733 events=3 v=0 err=<nil> buf=a2a2a2a2a2a2a2a2a2a2a2a2 seg=0000000000000000000000000000000003260000000000000000000000000000a2a2a2a2a2a2a2a2a2a2a2a200000000
Temporal put home=1 held: 17121..17427 events=4 v=0 err=<nil> buf=b1b1b1b1b1b1b1b1b1b1b1b1 seg=0300000000000000000000000000000011440000000000000000000000000000b1b1b1b1b1b1b1b1b1b1b1b100000000
Temporal get home=0 first: 9121..15434 events=4 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=00000000000000000000000000000000ed150000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Temporal get home=0 second: 15434..15738 events=2 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=00000000000000000000000000000000ed150000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Temporal get home=0 held: 17121..23434 events=12 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=03000000000000000000000000000000ed150000000000000000000000000000d2d2d2d2d2d2d2d2d2d2d2d200000000
Temporal get home=1 first: 9121..9425 events=2 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=00000000000000000000000000000000ed150000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Temporal get home=1 second: 9425..9729 events=2 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=00000000000000000000000000000000ed150000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Temporal get home=1 held: 17121..17425 events=3 v=0 err=<nil> buf=c0c0c0c0c0c0c0c0c0c0c0c0 seg=03000000000000000000000000000000ed150000000000000000000000000000c0c0c0c0c0c0c0c0c0c0c0c000000000
Delta getdelta home=0 v=1: 72678..78986 events=4 err=ddss: getdelta "seg": version 1 not retained (current 6) buf=eeeeeeeeeeeeeeeeeeeeeeee
Delta getdelta home=0 v=3: 78986..91307 events=7 err=<nil> buf=303030303030303030303030
Delta getdelta home=0 v=6: 91307..103628 events=7 err=<nil> buf=606060606060606060606060
Delta getdelta home=0 v=7: 103628..109936 events=4 err=ddss: getdelta "seg": version 7 not retained (current 6) buf=eeeeeeeeeeeeeeeeeeeeeeee
Version waitversion home=0: 1800..119920 events=107 v=8 err=<nil>
Delta getdelta home=1 v=1: 4224..4526 events=2 err=ddss: getdelta "seg": version 1 not retained (current 6) buf=eeeeeeeeeeeeeeeeeeeeeeee
Delta getdelta home=1 v=3: 4526..4832 events=3 err=<nil> buf=303030303030303030303030
Delta getdelta home=1 v=6: 4832..5138 events=3 err=<nil> buf=606060606060606060606060
Delta getdelta home=1 v=7: 5138..5440 events=2 err=ddss: getdelta "seg": version 7 not retained (current 6) buf=eeeeeeeeeeeeeeeeeeeeeeee
Version waitversion home=1: 1800..117918 events=165 v=8 err=<nil>
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
				unreg, err := ss.Client(1).Allocate(p, "unreg", 64, coh, 0)
				if err != nil {
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
// reads, local and remote, at the same instant.
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
			var g Op
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
				unreg, err := ss.Client(1).Allocate(p, "unreg", 64, coh, 0)
				if err != nil {
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
