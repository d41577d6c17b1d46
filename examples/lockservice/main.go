// Lockservice: exercises the three distributed lock managers (SRSL, DQNL,
// N-CoSED) on the same contention pattern and prints the Fig 5-style
// cascading latencies — the shared-cohort burst grant is where the
// paper's N-CoSED design shines.
package main

import (
	"fmt"
	"time"

	"ngdc"
)

func main() {
	kinds := []ngdc.LockKind{ngdc.SRSL, ngdc.DQNL, ngdc.NCoSED}

	fmt.Println("Uncontended exclusive acquire latency:")
	for _, kind := range kinds {
		r, err := ngdc.LockCascade(kind, ngdc.ExclusiveLock, 1)
		if err != nil {
			panic(err)
		}
		_ = r
		f := ngdc.New(ngdc.Config{Nodes: 3, LockKind: kind, NumLocks: 1})
		var lat time.Duration
		f.Go("probe", func(p *ngdc.Proc) {
			c := f.Locks.Client(1)
			start := p.Now()
			c.Lock(p, 0, ngdc.ExclusiveLock)
			lat = time.Duration(p.Now() - start)
			c.Unlock(p, 0, ngdc.ExclusiveLock)
		})
		if err := f.Run(); err != nil {
			panic(err)
		}
		f.Shutdown()
		fmt.Printf("  %-8v %v\n", kind, lat)
	}

	for _, mode := range []ngdc.LockMode{ngdc.SharedLock, ngdc.ExclusiveLock} {
		fmt.Printf("\nCascade latency, %v waiters behind an exclusive holder:\n", mode)
		fmt.Printf("  %-8s", "waiters")
		for _, kind := range kinds {
			fmt.Printf("  %-10v", kind)
		}
		fmt.Println()
		for _, n := range []int{2, 4, 8, 16} {
			fmt.Printf("  %-8d", n)
			for _, kind := range kinds {
				r, err := ngdc.LockCascade(kind, mode, n)
				if err != nil {
					panic(err)
				}
				fmt.Printf("  %-10v", r.Last.Round(100*time.Nanosecond))
			}
			fmt.Println()
		}
	}
	fmt.Println("\nN-CoSED grants a shared cohort in one burst; DQNL serializes it.")
}
