package serve

import (
	"fmt"
	"testing"

	"ngdc/internal/runtime"
)

// The parity test is the dual-mode contract check: one scripted request
// sequence — covering success paths, not-found, busy TryLocks and every
// server-side validation error — runs against the simulated backend over
// the sim loopback and against the live backend over real TCP, on each
// both ping-pong and pipelined. The transcripts of results (values,
// statuses, error strings) must be identical; timings of course are not
// compared.

// step is one scripted request from one of the script's two sessions.
type step struct {
	sess int // 0 or 1
	op   string
	key  string
	val  string
	lock int
	excl bool
}

// parityScript interleaves two sessions through the full surface.
var parityScript = []step{
	{sess: 0, op: "echo", val: "hello"},
	{sess: 0, op: "get", key: "absent"},
	{sess: 0, op: "put", key: "a", val: "one"},
	{sess: 0, op: "get", key: "a"},
	{sess: 1, op: "get", key: "a"},
	{sess: 1, op: "put", key: "a", val: "two"},
	{sess: 0, op: "get", key: "a"},
	{sess: 0, op: "put", key: "", val: "x"}, // error: empty key
	{sess: 0, op: "lock", lock: 1, excl: true},
	{sess: 0, op: "lock", lock: 1, excl: true},     // error: already held here
	{sess: 1, op: "trylock", lock: 1, excl: true},  // busy
	{sess: 1, op: "trylock", lock: 1, excl: false}, // busy
	{sess: 1, op: "trylock", lock: 2, excl: false}, // ok
	{sess: 0, op: "trylock", lock: 2, excl: false}, // ok: shared coexists
	{sess: 0, op: "unlock", lock: 3, excl: true},   // error: not held
	{sess: 0, op: "unlock", lock: 1, excl: false},  // error: wrong mode
	{sess: 0, op: "unlock", lock: 1, excl: true},
	{sess: 1, op: "trylock", lock: 1, excl: true}, // now ok
	{sess: 1, op: "unlock", lock: 1, excl: true},
	{sess: 0, op: "unlock", lock: 2, excl: false},
	{sess: 1, op: "unlock", lock: 2, excl: false},
	{sess: 0, op: "lock", lock: 9, excl: true}, // error: outside namespace of 8
	{sess: 0, op: "put", key: "b", val: "payload-b"},
	{sess: 1, op: "get", key: "b"},
}

var stepOps = map[string]Op{"echo": OpEcho, "put": OpPut, "get": OpGet, "lock": OpLock, "trylock": OpTryLock, "unlock": OpUnlock}

// request is the wire form of the step.
func (s step) request() Request {
	return Request{Op: stepOps[s.op], Key: s.key, Val: []byte(s.val), Lock: uint32(s.lock), Excl: s.excl}
}

// play runs one step as a round trip through the Client's typed call
// and returns its transcript line.
func (s step) play(tk runtime.Task, cl *Client) string {
	switch s.op {
	case "echo":
		got, err := cl.Echo(tk, []byte(s.val))
		return fmt.Sprintf("echo %q err=%v", got, err)
	case "put":
		return fmt.Sprintf("put err=%v", cl.Put(tk, s.key, []byte(s.val)))
	case "get":
		v, ok, err := cl.Get(tk, s.key)
		return fmt.Sprintf("get %q ok=%v err=%v", v, ok, err)
	case "lock":
		return fmt.Sprintf("lock err=%v", cl.Lock(tk, s.lock, s.excl))
	case "trylock":
		ok, err := cl.TryLock(tk, s.lock, s.excl)
		return fmt.Sprintf("trylock ok=%v err=%v", ok, err)
	case "unlock":
		return fmt.Sprintf("unlock err=%v", cl.Unlock(tk, s.lock, s.excl))
	}
	return "unknown op " + s.op
}

// line is the transcript line of a step answered by rep in a pipeline.
func (s step) line(rep Reply) string {
	switch s.op {
	case "echo":
		got, err := rep.Val, rep.Err()
		if err != nil {
			got = nil
		}
		return fmt.Sprintf("echo %q err=%v", got, err)
	case "get":
		v, ok, err := rep.Found()
		return fmt.Sprintf("get %q ok=%v err=%v", v, ok, err)
	case "trylock":
		ok, err := rep.Acquired()
		return fmt.Sprintf("trylock ok=%v err=%v", ok, err)
	}
	return fmt.Sprintf("%s err=%v", s.op, rep.Err())
}

// runScript plays the script through two sessions on rt and returns the
// transcript. One task alternating between the clients keeps every mode
// on one deterministic order. Ping-pong, each step is a round trip;
// pipelined, every run of consecutive steps of one session is in flight
// at once (sent whole, then read whole) — a session's run cannot start
// before the other session's replies are in, because the script's
// results depend on that order.
func runScript(t *testing.T, rt runtime.Runtime, addr string, pipelined bool) []string {
	t.Helper()
	var out []string
	rt.Go("script", func(tk runtime.Task) {
		var cls [2]*Client
		for i := range cls {
			cl, err := Dial(rt, addr)
			if err != nil {
				t.Errorf("dial session %d: %v", i, err)
				return
			}
			defer cl.Close()
			cls[i] = cl
		}
		for i := 0; i < len(parityScript); {
			s := parityScript[i]
			if !pipelined {
				out = append(out, fmt.Sprintf("#%02d s%d %s", i, s.sess, s.play(tk, cls[s.sess])))
				i++
				continue
			}
			var reqs []Request
			for j := i; j < len(parityScript) && parityScript[j].sess == s.sess; j++ {
				reqs = append(reqs, parityScript[j].request())
			}
			replies, err := cls[s.sess].Pipeline(tk, reqs, nil)
			if err != nil {
				t.Errorf("steps %d-%d: %v", i, i+len(reqs)-1, err)
				return
			}
			for _, rep := range replies {
				out = append(out, fmt.Sprintf("#%02d s%d %s", i, s.sess, parityScript[i].line(rep)))
				i++
			}
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSimLiveParity requires the simulated backend and the live backend,
// each ping-pong and pipelined, to produce identical transcripts for the
// scripted sequence.
func TestSimLiveParity(t *testing.T) {
	opts := Options{Locks: 8, Nodes: 2}
	var outs [4][]string
	names := [4]string{"sim", "sim pipelined", "live", "live pipelined"}
	for i := range outs {
		pipelined := i%2 == 1
		if i < 2 {
			_, rt := startSim(t, 5, opts)
			outs[i] = runScript(t, rt, "ngdc", pipelined)
		} else {
			rt, addr := startLive(t, opts)
			outs[i] = runScript(t, rt, addr, pipelined)
		}
		if len(outs[i]) != len(parityScript) {
			t.Fatalf("%s transcript has %d lines, want %d", names[i], len(outs[i]), len(parityScript))
		}
	}
	for step := range parityScript {
		for i := 1; i < len(outs); i++ {
			if outs[i][step] != outs[0][step] {
				t.Errorf("parity break at step %d:\n  %s: %s\n  %s: %s", step, names[0], outs[0][step], names[i], outs[i][step])
			}
		}
	}
}
