package experiments

import (
	"time"

	"ngdc/internal/dlm"
	"ngdc/internal/metrics"
)

// Recovery regenerates E17: crashed-holder recovery latency of the
// lease-based N-CoSED locks as a function of the lease length. The
// scenario is dlm.MeasureRecovery's: the exclusive holder is crashed by
// a deterministic fault plan mid-critical-section, and the home agent
// must detect the dead holder and re-grant the queued waiter. The
// measured unavailability is bounded by one lease interval, so the sweep
// makes the lease-length trade-off visible: short leases recover fast
// but tolerate less holder silence.
func Recovery(o Options) (*metrics.Table, error) {
	ttls := []time.Duration{
		100 * time.Microsecond,
		250 * time.Microsecond,
		500 * time.Microsecond,
		time.Millisecond,
		2 * time.Millisecond,
	}
	if o.Quick {
		ttls = []time.Duration{100 * time.Microsecond, 500 * time.Microsecond}
	}
	res, err := sweep(o, ttls, func(ttl time.Duration, o Options) (dlm.RecoveryResult, error) {
		return dlm.MeasureRecovery(ttl, o.healthy())
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("E17 — N-CoSED crashed-holder recovery latency vs lease length",
		"lease (µs)", "recovery latency (µs)", "latency/lease", "recoveries")
	for i, ttl := range ttls {
		r := res[i]
		tb.AddRow(us(ttl), us(r.Latency), metrics.Ratio(float64(r.Latency), float64(ttl)), r.Recoveries)
	}
	return tb, nil
}
