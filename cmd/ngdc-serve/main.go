// Command ngdc-serve hosts the framework's request surface as a live
// process: echo, KV put/get and shared/exclusive locks served over
// loopback TCP (or a unix-domain socket) on the wall clock. It is the
// real-serving counterpart of the simulated framework — same protocol,
// same semantics, load-testable with ordinary concurrent clients.
//
// Serve mode (the default) listens until interrupted:
//
//	ngdc-serve -addr 127.0.0.1:9620
//	ngdc-serve -addr unix:/tmp/ngdc.sock
//
// Load mode starts a server, drives a mixed workload with concurrent
// clients against it, prints throughput and exits nonzero on any error:
//
//	ngdc-serve -load -clients 100 -duration 3s
//
// By default every client waits for each reply before its next request.
// With -window k it keeps k requests in flight, which lets both ends
// put a whole window on the wire in one write:
//
//	ngdc-serve -load -clients 2 -window 60 -duration 3s
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ngdc/internal/runtime"
	"ngdc/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9620", "listen address (host:port, or unix:/path for a unix-domain socket)")
		locks    = flag.Int("locks", 64, "size of the lock namespace")
		load     = flag.Bool("load", false, "run a load test against a freshly started server instead of serving")
		clients  = flag.Int("clients", 100, "concurrent connections in load mode")
		window   = flag.Int("window", 1, "requests each connection keeps in flight in load mode (1 = ping-pong)")
		duration = flag.Duration("duration", 3e9, "measured window in load mode")
	)
	flag.Parse()

	rt := runtime.NewReal()
	defer rt.Shutdown()
	srv := serve.New(rt, serve.Options{Locks: *locks})
	ln, err := rt.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ngdc-serve: %v\n", err)
		os.Exit(1)
	}
	srv.Serve(ln)

	if *load {
		stats, err := serve.RunLoad(rt, ln.Addr(), *clients, *window, *duration)
		fmt.Printf("clients=%d ops=%d errors=%d elapsed=%s throughput=%.0f req/s p50=%s p99=%s\n",
			stats.Clients, stats.Ops, stats.Errors, stats.Elapsed, stats.OpsPerSec(),
			stats.P50, stats.P99)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ngdc-serve: load: %v\n", err)
			os.Exit(1)
		}
		if stats.Errors > 0 {
			fmt.Fprintf(os.Stderr, "ngdc-serve: load: %d request errors\n", stats.Errors)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("ngdc-serve: listening on %s (%d locks)\n", ln.Addr(), *locks)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("ngdc-serve: shutting down")
}
