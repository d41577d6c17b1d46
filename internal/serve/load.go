package serve

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ngdc/internal/runtime"
)

// LoadStats summarizes one live load-generation run.
type LoadStats struct {
	// Clients is the number of concurrent connections driven.
	Clients int
	// Ops counts completed requests across all clients.
	Ops int64
	// Errors counts failed requests.
	Errors int64
	// Elapsed is the wall time of the measured window.
	Elapsed time.Duration
	// P50 and P99 are wall latencies across every window of every
	// client, first frame sent to last reply read: per request at
	// window 1 (echo, put, get, lock, unlock each count as one).
	P50, P99 time.Duration
}

// OpsPerSec is the aggregate request throughput.
func (s LoadStats) OpsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Ops) / s.Elapsed.Seconds()
}

// loadLockSpan is the slice of the lock namespace the load generator
// contends on; small enough that queues actually form under ~100
// clients, large enough to keep the locks from full serialization.
const loadLockSpan = 8

// RunLoad drives a mixed workload — echo with payload verification,
// put/get with read-back verification, contended shared and exclusive
// lock/unlock cycles — against a live server at addr, with clients
// concurrent connections for roughly dur of wall time. Each connection
// keeps window requests in flight: 1 is ping-pong, more is a Pipeline
// per window. It returns the aggregate stats and the first error any
// client hit (the stats still count the rest). Live runtimes only: the
// simulated transport has no cross-runtime addresses and its time is
// virtual.
func RunLoad(rt *runtime.RealRuntime, addr string, clients, window int, dur time.Duration) (LoadStats, error) {
	clients, window = max(clients, 1), max(window, 1)
	var ops, errs atomic.Int64
	var firstErr atomic.Value
	fail := func(err error) {
		errs.Add(1)
		firstErr.CompareAndSwap(nil, err) //nolint:errcheck // best effort: keep the first
	}
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	var latMu sync.Mutex
	var allLats []time.Duration
	for i := 0; i < clients; i++ {
		wg.Add(1)
		idx := i
		rt.GoDaemon(fmt.Sprintf("load-%d", idx), func(t runtime.Task) {
			defer wg.Done()
			cl, err := Dial(rt, addr)
			if err != nil {
				fail(fmt.Errorf("client %d: dial: %w", idx, err))
				return
			}
			defer cl.Close()
			ld := loadClient{idx: idx, key: fmt.Sprintf("load-%d", idx), payload: []byte(fmt.Sprintf("payload-%d", idx))}
			reqs := make([]Request, window)
			var replies []Reply
			lats := make([]time.Duration, 0, 4096)
			for seq := 0; time.Now().Before(deadline); seq += window {
				for j := range reqs {
					reqs[j] = ld.request(seq + j)
				}
				t0 := time.Now()
				replies, err = cl.Pipeline(t, reqs, replies[:0])
				for j := 0; j < len(replies) && err == nil; j++ {
					err = ld.check(seq+j, replies[j])
				}
				if err != nil {
					fail(fmt.Errorf("client %d window at request %d: %w", idx, seq, err))
					break
				}
				lats = append(lats, time.Since(t0))
				ops.Add(int64(window))
			}
			latMu.Lock()
			allLats = append(allLats, lats...)
			latMu.Unlock()
		})
	}
	wg.Wait()
	stats := LoadStats{
		Clients: clients,
		Ops:     ops.Load(),
		Errors:  errs.Load(),
		Elapsed: time.Since(start),
	}
	stats.P50, stats.P99 = latPercentile(allLats, 50), latPercentile(allLats, 99)
	err, _ := firstErr.Load().(error)
	return stats, err
}

// latPercentile returns the p-th percentile of the observed latencies
// (nearest-rank on the sorted sample; 0 when empty).
func latPercentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	k := int(p / 100 * float64(len(lats)-1))
	return lats[k]
}

// loadClient is one connection's endless request sequence — rounds of
// echo, put, get (reading the put back), lock, unlock — as a function of
// the request's position in it, so a window may start and end anywhere.
// A lock is always followed directly by its unlock: no connection waits
// for one lock while holding another.
type loadClient struct {
	idx     int
	key     string
	payload []byte
}

// loadRound names one round's operations, in order.
var loadRound = [...]string{"echo", "put", "get", "lock", "unlock"}

const loadOpsPerRound = len(loadRound)

func (c loadClient) value(round int) []byte { return []byte(fmt.Sprintf("%s#%d", c.key, round)) }

// request returns the seq-th request of the sequence.
func (c loadClient) request(seq int) Request {
	round := seq / loadOpsPerRound
	lock := uint32((c.idx + round) % loadLockSpan)
	excl := (c.idx+round)%3 == 0 // mostly shared, every third exclusive
	switch seq % loadOpsPerRound {
	case 0:
		return Request{Op: OpEcho, Val: c.payload}
	case 1:
		return Request{Op: OpPut, Key: c.key, Val: c.value(round)}
	case 2:
		return Request{Op: OpGet, Key: c.key}
	case 3:
		return Request{Op: OpLock, Lock: lock, Excl: excl}
	}
	return Request{Op: OpUnlock, Lock: lock, Excl: excl}
}

// check verifies the reply to the seq-th request.
func (c loadClient) check(seq int, rep Reply) error {
	var want []byte
	switch seq % loadOpsPerRound {
	case 0:
		want = c.payload
	case 2:
		want = c.value(seq / loadOpsPerRound)
	}
	if err := rep.Err(); err != nil {
		return fmt.Errorf("%s: %w", loadRound[seq%loadOpsPerRound], err)
	}
	if !bytes.Equal(rep.Val, want) {
		return fmt.Errorf("%s returned %q, want %q", loadRound[seq%loadOpsPerRound], rep.Val, want)
	}
	return nil
}
