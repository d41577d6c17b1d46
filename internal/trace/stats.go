package trace

import (
	"fmt"
	"io"
	"time"
)

// TraceStats is a point-in-time copy of a registry's counters: a plain
// value that is deterministic for a given seed, safe to retain after the
// simulation is gone, and mergeable across runs. Devices and NICs are
// indexed by node ID (a zero record where no node recorded), Fabric by
// OpClass, and Schemes are sorted by name.
type TraceStats struct {
	Engine  EngineSnapshot
	Devices []DeviceStats
	NICs    []NICStats
	Fabric  [numOpClasses]OpTimes
	Schemes []SchemeStats
}

// Snapshot copies the registry's counters, including the engine stats of
// the currently bound environment and of every one bound before it.
func (r *Registry) Snapshot() TraceStats {
	s := TraceStats{
		Engine:  r.engine,
		Devices: values(r.devs),
		NICs:    values(r.nics),
		Fabric:  r.fabric,
		Schemes: values(r.schemes),
	}
	if r.env != nil {
		s.Engine.merge(engineOf(r.env.Stats()))
	}
	return s
}

// values copies the records behind recs, a zero value for each nil.
func values[T any](recs []*T) []T {
	out := make([]T, len(recs))
	for i, rec := range recs {
		if rec != nil {
			out[i] = *rec
		}
	}
	return out
}

// Merge returns the element-wise sum of two snapshots (latency summaries
// are merged; queue high-water marks take the max): both are folded into
// a fresh Registry, whose snapshot is the result.
func (s TraceStats) Merge(o TraceStats) TraceStats {
	r := NewRegistry()
	r.Fold(s)
	r.Fold(o)
	return r.Snapshot()
}

// VerbsOps returns total verbs operations across all devices — a quick
// health check for tests and examples.
func (s TraceStats) VerbsOps() int64 {
	var t int64
	for _, d := range s.Devices {
		t += d.Read.Ops + d.Write.Ops + d.Atomic.Ops + d.Send.Ops
	}
	return t
}

// VerbsBytes returns total bytes moved by verbs operations.
func (s TraceStats) VerbsBytes() int64 {
	var t int64
	for _, d := range s.Devices {
		t += d.Read.Bytes + d.Write.Bytes + d.Atomic.Bytes + d.Send.Bytes
	}
	return t
}

// Stalls returns total flow-control stalls across all socket schemes.
func (s TraceStats) Stalls() int64 {
	var t int64
	for _, sc := range s.Schemes {
		for _, st := range sc.Stalls {
			t += st.Count
		}
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteJSONL renders the snapshot as one JSON counter record per line:
// per-device verbs counters, per-NIC occupancy, per-op-class wire-vs-CPU
// breakdown, per-scheme flow-control stats and the engine record. Each
// kind is written in slice order (node ID, op class, scheme name); a
// verbs, NIC or fabric record with no operations is skipped.
func (s TraceStats) WriteJSONL(w io.Writer) error {
	for id, d := range s.Devices {
		for _, v := range []struct {
			op string
			st VerbStats
		}{{"read", d.Read}, {"write", d.Write}, {"atomic", d.Atomic}, {"send", d.Send}} {
			if v.st.Ops == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w,
				"{\"record\":\"verbs\",\"node\":%d,\"op\":%q,\"ops\":%d,\"bytes\":%d,\"mean_us\":%.3f,\"max_us\":%.3f}\n",
				id, v.op, v.st.Ops, v.st.Bytes, v.st.Lat.Mean(), v.st.Lat.Max()); err != nil {
				return err
			}
		}
	}
	for id, n := range s.NICs {
		if n.TxOps == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w,
			"{\"record\":\"nic\",\"node\":%d,\"tx_ops\":%d,\"tx_busy_us\":%.3f,\"tx_stalls\":%d,\"tx_stall_us\":%.3f}\n",
			id, n.TxOps, us(n.TxBusy), n.TxStallCount, us(n.TxStall)); err != nil {
			return err
		}
	}
	for c, t := range s.Fabric {
		if t.Ops == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w,
			"{\"record\":\"fabric\",\"class\":%q,\"ops\":%d,\"wire_us\":%.3f,\"cpu_us\":%.3f}\n",
			OpClass(c), t.Ops, us(t.Wire), us(t.HostCPU)); err != nil {
			return err
		}
	}
	for _, sc := range s.Schemes {
		if _, err := fmt.Fprintf(w,
			"{\"record\":\"sockets\",\"scheme\":%q,\"msgs\":%d,\"zerocopy_bytes\":%d,\"bcopy_bytes\":%d,"+
				"\"credit_stalls\":%d,\"credit_stall_us\":%.3f,\"pool_stalls\":%d,\"pool_stall_us\":%.3f,"+
				"\"window_stalls\":%d,\"window_stall_us\":%.3f}\n",
			sc.Name, sc.Msgs, sc.ZeroCopyBytes, sc.BCopyBytes,
			sc.Stalls[StallCredits].Count, us(sc.Stalls[StallCredits].Wait),
			sc.Stalls[StallPool].Count, us(sc.Stalls[StallPool].Wait),
			sc.Stalls[StallWindow].Count, us(sc.Stalls[StallWindow].Wait)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"{\"record\":\"engine\",\"envs\":%d,\"events\":%d,\"resumes\":%d,\"procs\":%d,\"max_queue\":%d}\n",
		s.Engine.Envs, s.Engine.EventsProcessed, s.Engine.Resumes, s.Engine.ProcsSpawned, s.Engine.MaxEventQueue)
	return err
}
