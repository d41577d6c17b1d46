// Memorypool: demonstrates the global memory aggregator, the multicast
// primitive and the remote-memory file cache working together — the
// framework's extension subsystems. A node's buffer cache spills into the
// cluster's aggregate memory; after a simulated service restart wipes the
// local cache, the working set is still warm in remote memory, and a
// multicast announces the restart to the group.
package main

import (
	"fmt"
	"time"

	"ngdc"
	"ngdc/internal/cluster"
	"ngdc/internal/fabric"
	"ngdc/internal/gma"
	"ngdc/internal/verbs"
)

func main() {
	env := ngdc.NewEnv()
	defer env.Shutdown()
	nw := verbs.NewNetwork(env, fabric.DefaultParams())
	var nodes []*cluster.Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, cluster.NewNode(env, i, 2, 64<<20))
	}

	pool, err := gma.New(nw, nodes, gma.Options{ArenaPerNode: 16 << 20})
	if err != nil {
		panic(err)
	}
	fmt.Printf("aggregate memory pool: %d MB across %d nodes\n",
		pool.TotalFree()>>20, len(nodes))

	cache := ngdc.NewFileCache(ngdc.DefaultFileCacheConfig(ngdc.FileCacheRemoteMemory), nw, nodes[0], pool)
	group := ngdc.NewMulticast(nw, nodes, ngdc.MulticastOptions{Name: "ops", Strategy: ngdc.BinomialMulticast})
	for _, n := range nodes[1:] {
		sub := group.Subscribe(n.ID)
		name := n.Name
		env.GoDaemon("listener-"+name, func(p *ngdc.Proc) {
			for {
				msg, ok := sub.Recv(p)
				if !ok {
					return
				}
				fmt.Printf("  [%v] %s heard: %s\n", p.Now(), name, msg)
			}
		})
	}

	env.Go("service", func(p *ngdc.Proc) {
		// Work through a data set twice the local cache.
		const pages = 128
		for round := 0; round < 3; round++ {
			for pg := 0; pg < pages; pg++ {
				if _, err := cache.Read(p, 0, pg); err != nil {
					panic(err)
				}
			}
		}
		fmt.Printf("\nbefore restart: %d local pages, %d remote pages, mean read %.0fµs\n",
			cache.LocalPages(), cache.RemotePages(), cache.Stats.MeanLatencyUs())

		// Simulated restart: local buffer cache is lost.
		cache.FlushLocal()
		group.Send(p, []byte("node0 service restarting"))
		p.Sleep(time.Millisecond)

		before := cache.Stats
		for pg := 0; pg < pages; pg++ {
			if _, err := cache.Read(p, 0, pg); err != nil {
				panic(err)
			}
		}
		after := cache.Stats
		fmt.Printf("after restart: %d reads, %d served from remote memory, %d from disk\n",
			after.Reads-before.Reads, after.RemoteHits-before.RemoteHits, after.DiskReads-before.DiskReads)
	})

	if err := env.Run(); err != nil {
		panic(err)
	}
	fmt.Println("\nthe working set survived the restart in aggregate remote memory")
}
