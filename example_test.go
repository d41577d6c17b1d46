package ngdc_test

import (
	"fmt"
	"time"

	"ngdc"
	"ngdc/internal/coopcache"
	"ngdc/internal/trace"
)

// ExampleNew wires a framework and runs a process that uses the shared
// state substrate.
func ExampleNew() {
	f := ngdc.New(ngdc.DefaultConfig())
	defer f.Shutdown()
	f.Go("app", func(p *ngdc.Proc) {
		c := f.Sharing.Client(1)
		h, err := c.Allocate(p, "greeting", 32, ngdc.NullCoherence, 0)
		if err != nil {
			panic(err)
		}
		if _, err := h.Put(p, []byte("hello")); err != nil {
			panic(err)
		}
		buf := make([]byte, 5)
		if _, err := h.Get(p, buf); err != nil {
			panic(err)
		}
		fmt.Printf("%s after %v\n", buf, p.Now() > 0)
	})
	if err := f.Run(); err != nil {
		panic(err)
	}
	// Output: hello after true
}

// ExampleLockCascade measures a Fig 5 cascade and reports whether the
// paper's scheme wins.
func ExampleLockCascade() {
	dqnl, err := ngdc.LockCascade(ngdc.DQNL, ngdc.SharedLock, 8, 1)
	if err != nil {
		panic(err)
	}
	nco, err := ngdc.LockCascade(ngdc.NCoSED, ngdc.SharedLock, 8, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("N-CoSED faster:", nco.Last < dqnl.Last)
	// Output: N-CoSED faster: true
}

// ExampleFramework_Dial shows the SDP family behind a familiar
// connection API.
func ExampleFramework_Dial() {
	f := ngdc.New(ngdc.Config{Nodes: 2, Seed: 1})
	defer f.Shutdown()
	c1, c2 := f.Dial(ngdc.ZSDP, 0, 1)
	f.GoDaemon("server", func(p *ngdc.Proc) {
		msg, err := c2.Recv(p)
		if err != nil {
			return
		}
		c2.Send(p, append(msg, " world"...))
	})
	f.Go("client", func(p *ngdc.Proc) {
		c1.Send(p, []byte("hello"))
		reply, _ := c1.Recv(p)
		fmt.Printf("%s\n", reply)
	})
	if err := f.Run(); err != nil {
		panic(err)
	}
	// Output: hello world
}

// ExampleFramework_Trace runs a locking workload and inspects the
// framework's observability snapshot: which op classes the run used and
// how much traffic the verbs layer moved. Snapshots are deterministic
// for a given seed.
func ExampleFramework_Trace() {
	cfg := ngdc.DefaultConfig() // N-CoSED locking over RDMA atomics
	cfg.Nodes = 4
	f := ngdc.New(cfg)
	defer f.Shutdown()
	f.Go("app", func(p *ngdc.Proc) {
		lk := f.Locks.Client(1)
		lk.Lock(p, 0, ngdc.ExclusiveLock)
		lk.Unlock(p, 0, ngdc.ExclusiveLock)
	})
	if err := f.Run(); err != nil {
		panic(err)
	}
	ts := f.Trace()
	fmt.Println("saw verbs traffic:", ts.VerbsOps() > 0)
	fmt.Println("locking used atomics:", ts.Fabric["rdma-atomic"].Ops > 0)
	fmt.Println("environments observed:", ts.Engine.Envs)
	// Output:
	// saw verbs traffic: true
	// locking used atomics: true
	// environments observed: 1
}

// Example_tracedExperiment drives one Fig 6 experiment through its
// package's Run function with a trace registry in the config's carrier,
// then asks the snapshot which transports did the work.
func Example_tracedExperiment() {
	cfg := coopcache.DefaultConfig(coopcache.CCWR, 2, 16<<10)
	cfg.Warmup, cfg.Measure = 50*time.Millisecond, 200*time.Millisecond
	cfg.Trace = trace.NewRegistry()
	if _, err := coopcache.Run(cfg); err != nil {
		panic(err)
	}
	ts := cfg.Trace.Snapshot()
	fmt.Println("remote hits rode rdma-read:", ts.Fabric["rdma-read"].Ops > 0)
	fmt.Println("client egress rode tcp:", ts.Fabric["tcp"].Ops > 0)
	// Output:
	// remote hits rode rdma-read: true
	// client egress rode tcp: true
}

// ExampleFramework_Monitor reads a node's kernel statistics one-sidedly.
func ExampleFramework_Monitor() {
	f := ngdc.New(ngdc.Config{Nodes: 3, Seed: 1})
	defer f.Shutdown()
	st := f.Monitor(ngdc.RDMASync, 0, []int{2}, 10*time.Millisecond)
	st.Start()
	f.Go("probe", func(p *ngdc.Proc) {
		f.Node(2).SetThreads(12)
		snap := st.Sample(p, 0)
		fmt.Println("threads:", snap.Threads)
	})
	if err := f.Run(); err != nil {
		panic(err)
	}
	// Output: threads: 12
}
