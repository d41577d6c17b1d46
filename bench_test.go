// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark iteration runs one complete simulated experiment and
// reports the figure's metric (latency in µs, throughput in TPS or MB/s)
// via b.ReportMetric, so `go test -bench=. -benchmem` reproduces every
// row of EXPERIMENTS.md. Virtual-time results are deterministic per seed;
// ns/op measures only how long the simulation takes to execute.
package ngdc_test

import (
	"fmt"
	"testing"
	"time"

	"ngdc"
	"ngdc/internal/cluster"
	"ngdc/internal/coopcache"
	"ngdc/internal/ddss"
	"ngdc/internal/dlm"
	"ngdc/internal/dyncache"
	"ngdc/internal/fabric"
	"ngdc/internal/filecache"
	"ngdc/internal/gma"
	"ngdc/internal/integrated"
	"ngdc/internal/monitor"
	"ngdc/internal/multicast"
	"ngdc/internal/qos"
	"ngdc/internal/reconfig"
	"ngdc/internal/sockets"
	"ngdc/internal/storm"
	"ngdc/internal/verbs"
)

// BenchmarkFig3aDDSSPut measures DDSS put() latency per coherence model
// (1-byte messages, the paper's headline point).
func BenchmarkFig3aDDSSPut(b *testing.B) {
	for _, model := range ddss.Models {
		b.Run(model.String(), func(b *testing.B) {
			var last time.Duration
			for i := 0; i < b.N; i++ {
				lat, err := ddss.MeasurePutLatency(model, 1, ngdc.ServiceOptions{})
				if err != nil {
					b.Fatal(err)
				}
				last = lat
			}
			b.ReportMetric(float64(last)/float64(time.Microsecond), "virtual-µs/put")
		})
	}
}

// BenchmarkFig3bStorm compares STORM and STORM-DDSS query time at 10k
// records.
func BenchmarkFig3bStorm(b *testing.B) {
	for _, tr := range []storm.Transport{storm.OverTCP, storm.OverDDSS} {
		b.Run(tr.String(), func(b *testing.B) {
			var last storm.Result
			for i := 0; i < b.N; i++ {
				tcp, dd, err := storm.Compare(10000, ngdc.ServiceOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if tr == storm.OverTCP {
					last = tcp
				} else {
					last = dd
				}
			}
			b.ReportMetric(float64(last.Elapsed)/float64(time.Millisecond), "virtual-ms/query")
		})
	}
}

// BenchmarkFig5aLockCascadeShared measures the shared-cohort cascade with
// 16 waiters for each lock manager.
func BenchmarkFig5aLockCascadeShared(b *testing.B) {
	benchCascade(b, dlm.Shared)
}

// BenchmarkFig5bLockCascadeExclusive measures the exclusive chain with 16
// waiters for each lock manager.
func BenchmarkFig5bLockCascadeExclusive(b *testing.B) {
	benchCascade(b, dlm.Exclusive)
}

func benchCascade(b *testing.B, mode dlm.Mode) {
	for _, kind := range []dlm.Kind{dlm.SRSL, dlm.DQNL, dlm.NCoSED} {
		b.Run(kind.String(), func(b *testing.B) {
			var last time.Duration
			for i := 0; i < b.N; i++ {
				r, err := dlm.Cascade(kind, mode, 16, ngdc.ServiceOptions{})
				if err != nil {
					b.Fatal(err)
				}
				last = r.Last
			}
			b.ReportMetric(float64(last)/float64(time.Microsecond), "virtual-µs/cascade")
		})
	}
}

// BenchmarkFig6aCoopCache2Proxies measures data-center TPS per caching
// scheme with two proxies at 32 KiB files.
func BenchmarkFig6aCoopCache2Proxies(b *testing.B) { benchCoop(b, 2) }

// BenchmarkFig6bCoopCache8Proxies is the eight-proxy variant.
func BenchmarkFig6bCoopCache8Proxies(b *testing.B) { benchCoop(b, 8) }

func benchCoop(b *testing.B, proxies int) {
	for _, scheme := range coopcache.Schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			var last coopcache.Stats
			for i := 0; i < b.N; i++ {
				cfg := coopcache.DefaultConfig(scheme, proxies, 32<<10)
				cfg.Measure = 500 * time.Millisecond
				st, err := coopcache.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(last.TPS, "virtual-TPS")
			b.ReportMetric(last.HitRate()*100, "hit%")
		})
	}
}

// BenchmarkFig8aMonitorAccuracy measures the mean deviation of each
// monitoring scheme under back-end load.
func BenchmarkFig8aMonitorAccuracy(b *testing.B) {
	for _, sc := range monitor.Schemes {
		b.Run(sc.String(), func(b *testing.B) {
			var last monitor.AccuracyResult
			for i := 0; i < b.N; i++ {
				cfg := monitor.DefaultAccuracyConfig(sc)
				cfg.Duration = time.Second
				res, err := monitor.Accuracy(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.MeanAbsDeviation(), "mean-dev-threads")
		})
	}
}

// BenchmarkFig8bMonitorLB measures load-balanced throughput per
// monitoring scheme on the Zipf(0.9) trace.
func BenchmarkFig8bMonitorLB(b *testing.B) {
	for _, sc := range monitor.Schemes {
		b.Run(sc.String(), func(b *testing.B) {
			var last monitor.LBStats
			for i := 0; i < b.N; i++ {
				cfg := monitor.DefaultLBConfig(sc, 0.9)
				cfg.Measure = time.Second
				st, err := monitor.RunLB(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(last.TPS, "virtual-TPS")
		})
	}
}

// BenchmarkSec3SDPBandwidth measures streaming bandwidth of the SDP
// family at 32 KiB messages (the AZ-SDP sweet spot).
func BenchmarkSec3SDPBandwidth(b *testing.B) {
	for _, sc := range []sockets.Scheme{sockets.TCP, sockets.BSDP, sockets.ZSDP, sockets.AZSDP} {
		b.Run(sc.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				bw, err := sockets.MeasureBandwidth(sc, 32<<10, 200, ngdc.ServiceOptions{})
				if err != nil {
					b.Fatal(err)
				}
				last = bw
			}
			b.ReportMetric(last/1e6, "virtual-MB/s")
		})
	}
}

// BenchmarkSec6FlowControl measures small-message bandwidth under
// credit-based vs packetized flow control.
func BenchmarkSec6FlowControl(b *testing.B) {
	for _, sc := range []sockets.Scheme{sockets.BSDP, sockets.PSDP} {
		b.Run(sc.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				bw, err := sockets.MeasureBandwidth(sc, 64, 2000, ngdc.ServiceOptions{})
				if err != nil {
					b.Fatal(err)
				}
				last = bw
			}
			b.ReportMetric(last/1e6, "virtual-MB/s")
		})
	}
}

// BenchmarkSec6Reconfig measures the reconfiguration ablation.
func BenchmarkSec6Reconfig(b *testing.B) {
	for _, p := range []reconfig.Policy{reconfig.Naive, reconfig.HistoryAware} {
		b.Run(p.String(), func(b *testing.B) {
			var last reconfig.Result
			for i := 0; i < b.N; i++ {
				cfg := reconfig.DefaultConfig(p)
				cfg.Measure = time.Second
				res, err := reconfig.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.TPS, "virtual-TPS")
			b.ReportMetric(float64(last.Reconfigs), "moves")
		})
	}
}

// BenchmarkEngineThroughput measures the raw simulation engine: how many
// simulated events per wall-clock second the substrate sustains. This is
// the only benchmark here about real time rather than virtual time.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := ngdc.NewEnv()
		for w := 0; w < 16; w++ {
			env.Go(fmt.Sprintf("w%d", w), func(p *ngdc.Proc) {
				for k := 0; k < 1000; k++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(16000*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSec3DynCache measures dynamic-content caching throughput per
// coherence scheme.
func BenchmarkSec3DynCache(b *testing.B) {
	for _, sc := range dyncache.Schemes {
		b.Run(sc.String(), func(b *testing.B) {
			var last dyncache.Stats
			for i := 0; i < b.N; i++ {
				cfg := dyncache.DefaultConfig(sc)
				cfg.Measure = time.Second
				st, err := dyncache.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(last.TPS, "virtual-TPS")
			b.ReportMetric(float64(last.StaleServed), "stale")
		})
	}
}

// BenchmarkSec3QoS measures premium-class p95 latency with and without
// admission control under overload.
func BenchmarkSec3QoS(b *testing.B) {
	for _, p := range []qos.Policy{qos.NoControl, qos.PriorityAdmission} {
		b.Run(p.String(), func(b *testing.B) {
			var last qos.Stats
			for i := 0; i < b.N; i++ {
				cfg := qos.DefaultConfig(p)
				cfg.Measure = time.Second
				st, err := qos.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(last.Premium.P95Ms, "premium-p95-ms")
			b.ReportMetric(last.Premium.TPS, "premium-TPS")
		})
	}
}

// BenchmarkMulticast measures dissemination latency at 32 members.
func BenchmarkMulticast(b *testing.B) {
	for _, s := range []multicast.Strategy{multicast.Serial, multicast.Binomial} {
		b.Run(s.String(), func(b *testing.B) {
			var last time.Duration
			for i := 0; i < b.N; i++ {
				lat, err := multicast.MeasureLatency(s, 32, 4096, ngdc.ServiceOptions{})
				if err != nil {
					b.Fatal(err)
				}
				last = lat
			}
			b.ReportMetric(float64(last)/float64(time.Microsecond), "virtual-µs")
		})
	}
}

// BenchmarkSec6FileCache measures mean read latency of the file cache
// modes on a 2x-capacity working set.
func BenchmarkSec6FileCache(b *testing.B) {
	for _, mode := range []filecache.Mode{filecache.DiskOnly, filecache.RemoteMemory} {
		b.Run(mode.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				env := ngdc.NewEnv()
				nw := verbs.NewNetwork(env, fabric.DefaultParams())
				var nodes []*cluster.Node
				for j := 0; j < 3; j++ {
					nodes = append(nodes, cluster.NewNode(env, j, 2, 64<<20))
				}
				var agg *gma.Aggregator
				if mode == filecache.RemoteMemory {
					var err error
					agg, err = gma.New(nw, nodes, gma.Options{ArenaPerNode: 16 << 20})
					if err != nil {
						b.Fatal(err)
					}
				}
				c := filecache.New(filecache.DefaultConfig(mode), nw, nodes[0], agg)
				env.Go("reader", func(p *ngdc.Proc) {
					for round := 0; round < 5; round++ {
						for pg := 0; pg < 128; pg++ {
							if _, err := c.Read(p, 0, pg); err != nil {
								b.Error(err)
								return
							}
						}
					}
				})
				if err := env.Run(); err != nil {
					b.Fatal(err)
				}
				env.Shutdown()
				mean = c.Stats.MeanLatencyUs()
			}
			b.ReportMetric(mean, "virtual-µs/read")
		})
	}
}

// BenchmarkSec6Integrated measures end-to-end throughput of the full
// traditional vs RDMA-framework stacks.
func BenchmarkSec6Integrated(b *testing.B) {
	for _, st := range []integrated.Stack{integrated.Traditional, integrated.RDMAStack} {
		b.Run(st.String(), func(b *testing.B) {
			var last integrated.Stats
			for i := 0; i < b.N; i++ {
				cfg := integrated.DefaultConfig(st)
				cfg.Measure = time.Second
				res, err := integrated.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.TPS, "virtual-TPS")
			b.ReportMetric(last.P95Ms, "p95-ms")
		})
	}
}

// --- Service-layer throughput benchmarks -------------------------------
//
// Unlike the figure benchmarks above (whose metric is virtual time), the
// four benchmarks below measure WALL-CLOCK service-op throughput: how
// many sockets messages / DDSS ops / coopcache requests / DLM lock ops
// the simulator executes per real second. They are the service-level
// counterparts of BenchmarkEngineThroughput; the repeated, end-to-end
// measurement of the same layers is the repository benchmark (benchmark/).

// BenchmarkSocketsThroughput streams BSDP messages through the pooled
// wire-message path (bounce-buffer chunks, credit returns, reassembly).
func BenchmarkSocketsThroughput(b *testing.B) {
	const msgs = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sockets.MeasureBandwidth(sockets.BSDP, 8<<10, msgs, ngdc.ServiceOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(msgs*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkDDSSOps drives remote put/get on a Version-coherent segment
// (header-word scratch, verbs op pools).
func BenchmarkDDSSOps(b *testing.B) {
	b.ReportAllocs()
	ops := 0
	for i := 0; i < b.N; i++ {
		env := ngdc.NewEnv()
		nw := verbs.NewNetwork(env, fabric.DefaultParams())
		nodes := []*cluster.Node{
			cluster.NewNode(env, 0, 2, 64<<20),
			cluster.NewNode(env, 1, 2, 64<<20),
		}
		ss := ddss.New(nw, nodes, ddss.Options{})
		env.Go("worker", func(p *ngdc.Proc) {
			c := ss.Client(1)
			h, err := c.Allocate(p, "seg", 4096, ddss.Version, 0)
			if err != nil {
				b.Error(err)
				return
			}
			data := make([]byte, 1024)
			buf := make([]byte, 1024)
			for k := 0; k < 2000; k++ {
				if _, err := h.Put(p, data); err != nil {
					b.Error(err)
					return
				}
				if _, err := h.Get(p, buf); err != nil {
					b.Error(err)
					return
				}
				ops += 2
			}
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
		env.Shutdown()
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkCoopCacheServe runs a short CCWR deployment and reports
// request throughput per wall second.
func BenchmarkCoopCacheServe(b *testing.B) {
	b.ReportAllocs()
	var reqs int64
	for i := 0; i < b.N; i++ {
		cfg := coopcache.DefaultConfig(coopcache.CCWR, 2, 32<<10)
		cfg.Warmup = 100 * time.Millisecond
		cfg.Measure = time.Second
		st, err := coopcache.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reqs += st.Requests
	}
	b.ReportMetric(float64(reqs)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkDLMLockThroughput mixes uncontended N-CoSED fast paths with a
// contended exclusive ping-pong (enqueue/grant hand-offs).
func BenchmarkDLMLockThroughput(b *testing.B) {
	b.ReportAllocs()
	ops := 0
	for i := 0; i < b.N; i++ {
		env := ngdc.NewEnv()
		nw := verbs.NewNetwork(env, fabric.DefaultParams())
		nodes := []*cluster.Node{
			cluster.NewNode(env, 0, 2, 1<<30),
			cluster.NewNode(env, 1, 2, 1<<30),
		}
		m := dlm.New(nw, nodes, dlm.Options{Kind: dlm.NCoSED, NumLocks: 4})
		for n := 0; n < 2; n++ {
			cl := m.Client(n)
			env.Go(fmt.Sprintf("w%d", n), func(p *ngdc.Proc) {
				for k := 0; k < 1000; k++ {
					cl.Lock(p, 1, dlm.Exclusive)
					cl.Unlock(p, 1, dlm.Exclusive)
					cl.Lock(p, 0, dlm.Shared)
					cl.Unlock(p, 0, dlm.Shared)
					ops += 4
				}
			})
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
		env.Shutdown()
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "lock-ops/s")
}
