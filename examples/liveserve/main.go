// Liveserve: the dual-mode runtime end to end. The same server and the
// same client code run twice — first on the deterministic simulator
// (where the backend is the full framework: N-CoSED locks, DDSS
// segments, fabric cost model), then live on loopback TCP on the wall
// clock — and produce the same answers.
package main

import (
	"fmt"

	"ngdc"
)

// script drives a handful of requests through a client and prints the
// results; it is runtime-agnostic — the Task is a sim process in sim
// mode and a goroutine in live mode.
func script(label string, rt ngdc.Runtime, addr string) {
	rt.Go("client", func(t ngdc.Task) {
		cl, err := ngdc.DialServe(rt, addr)
		if err != nil {
			panic(err)
		}
		defer cl.Close()

		if err := cl.Lock(t, 0, true); err != nil {
			panic(err)
		}
		if err := cl.Put(t, "greeting", []byte("hello from "+label)); err != nil {
			panic(err)
		}
		if err := cl.Unlock(t, 0, true); err != nil {
			panic(err)
		}
		val, ok, err := cl.Get(t, "greeting")
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-4s mode: get(greeting) = %q (ok=%v) at t=%s\n", label, val, ok, t.Now())
	})
	if err := rt.Run(); err != nil {
		panic(err)
	}
}

func main() {
	// Simulated: virtual clock, deterministic, framework-backed.
	env := ngdc.NewEnv()
	defer env.Shutdown()
	simRT := ngdc.NewSimRuntime(env)
	simSrv := ngdc.NewServer(simRT, ngdc.ServerOptions{Locks: 8, Nodes: 2})
	simLn, err := simRT.Listen("svc")
	if err != nil {
		panic(err)
	}
	simSrv.Serve(simLn)
	script("sim", simRT, "svc")

	// Live: wall clock, loopback TCP, concurrent in-memory backend.
	liveRT := ngdc.NewRealRuntime()
	defer liveRT.Shutdown()
	liveSrv := ngdc.NewServer(liveRT, ngdc.ServerOptions{Locks: 8})
	liveLn, err := liveRT.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	liveSrv.Serve(liveLn)
	script("live", liveRT, liveLn.Addr())
}
