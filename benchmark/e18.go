package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"ngdc/internal/experiments"
	"ngdc/internal/verbs"
)

// e18Workload wraps one experiments.RunScaleCell configuration. The
// timed window is the whole call, cold start included: users pay the
// cluster build once per cell.
func e18Workload(name, why string, base experiments.ScaleConfig) *workload {
	w := &workload{name: name, why: why, des: true, call: "experiments.RunScaleCell"}
	w.rep = func(r *run) repOut {
		cfg := base
		cfg.Requests = r.cfg.scale(base.Requests)
		cfg.Seed = r.cfg.seed
		var res experiments.ScaleResult
		var err error
		r.timed(func() { res, err = experiments.RunScaleCell(cfg) })

		out := repOut{requests: int64(cfg.Requests)}
		switch {
		case err != nil:
			out.failed, out.why = out.requests, err.Error()
		case res.Requests != out.requests || res.Hits+res.Misses != res.Requests:
			out.failed = out.requests
			out.why = fmt.Sprintf("conservation: %d hits + %d misses, %d of %d requests", res.Hits, res.Misses, res.Requests, out.requests)
		}
		if out.failed > 0 {
			return out
		}
		out.digest = scaleDigest(res)
		out.events = res.Events
		// The call's wall time before the engine starts is the cluster
		// construction, the only build this workload has.
		out.build = r.win.wall - res.Wall
		req, kreq := float64(res.Requests), float64(res.Requests)/1000
		out.layer = map[string]float64{
			"sim.events_per_req":               float64(res.Events) / req,
			"verbs.conn_establishes_per_kreq":  float64(res.Establishes) / kreq,
			"verbs.conn_evictions_per_kreq":    float64(res.Evictions) / kreq,
			"verbs.ud_ops_per_req":             float64(res.UDOps) / req,
			"verbs.conn_cache_misses_per_kreq": float64(res.CacheMisses) / kreq,
			"verbs.conn_bytes_per_node":        res.ConnBytesAvg,
			"coopcache.hit_frac":               float64(res.Hits) / req,
			"coopcache.spill_hit_frac":         float64(res.SpillHits) / req,
			"coopcache.evictions_per_kreq":     float64(res.CacheEvictions) / kreq,
			"coopcache.invalidations_per_kreq": float64(res.Invalidations) / kreq,
			"coopcache.stale_reads_per_kreq":   float64(res.StaleReads) / kreq,
			"coopcache.rollbacks_per_kreq":     float64(res.Rollbacks) / kreq,
			"coopcache.spill_drops_per_kreq":   float64(res.SpillDrops) / kreq,
			"coopcache.dir_max_over_mean":      res.DirMaxOverMean,
			"coopcache.dir_moves":              float64(res.DirMigrations + res.DirSplits),
			"model.virt_reqs_per_s":            res.ReqsPerSec,
			"model.virt_p50_us":                float64(res.P50) / float64(time.Microsecond),
			"model.virt_p99_us":                float64(res.P99) / float64(time.Microsecond),
		}
		return out
	}
	return w
}

// scaleDigest hashes every model output of a cell. Events and Wall are
// left out: event counts are what ROADMAP item 5 exists to lower, and
// wall time is not a model output.
func scaleDigest(res experiments.ScaleResult) string {
	res.Events, res.Wall = 0, 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res)
	return fmt.Sprintf("%016x", h.Sum64())
}

var e18Hit = e18Workload("e18-hit",
	"1024-node pooled-transport cell, exact-sized cache, at least 95% hits: sim, Go hand-off and verbs connection tracking do the work; largest heap",
	experiments.ScaleConfig{
		Nodes: 1024, Transport: verbs.PooledTransport(),
		Clients: 200_000, Drivers: 64, Requests: 400_000,
	})

var e18Churn = e18Workload("e18-churn",
	"256-node RC cell at 10% cache capacity with spill and rebalance: storage misses, evictions, CAS churn; connection tracking does little",
	experiments.ScaleConfig{
		Nodes: 256, Docs: 8192, CacheFrac: 0.1, Spill: true, Rebalance: true,
		Clients: 200_000, Drivers: 64, Requests: 300_000,
	})
