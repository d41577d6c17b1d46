package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// TraceStats is a point-in-time copy of a registry's counters: a plain
// value that is deterministic for a given seed, safe to retain after the
// simulation is gone, and mergeable across runs.
type TraceStats struct {
	Engine  EngineSnapshot
	Devices map[int]DeviceStats
	NICs    map[int]NICStats
	Fabric  map[string]OpTimes
	Schemes map[string]SchemeStats
}

// Snapshot copies the registry's counters, including the engine stats of
// the currently bound environment and of every one bound before it.
func (r *Registry) Snapshot() TraceStats {
	s := TraceStats{
		Engine:  r.engine,
		Devices: make(map[int]DeviceStats, len(r.devs)),
		NICs:    make(map[int]NICStats, len(r.nics)),
		Fabric:  make(map[string]OpTimes, int(numOpClasses)),
		Schemes: make(map[string]SchemeStats, len(r.schemes)),
	}
	if r.env != nil {
		s.Engine.fold(r.env.Stats())
	}
	for id, d := range r.devs {
		s.Devices[id] = *d
	}
	for id, n := range r.nics {
		s.NICs[id] = *n
	}
	for c := OpClass(0); c < numOpClasses; c++ {
		if r.fabric[c].Ops > 0 {
			s.Fabric[c.String()] = r.fabric[c]
		}
	}
	for name, sc := range r.schemes {
		s.Schemes[name] = *sc
	}
	return s
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
// breakdown, per-scheme flow-control stats and the engine record. The
// output order is deterministic.
func (s TraceStats) WriteJSONL(w io.Writer) error {
	devs := make([]int, 0, len(s.Devices))
	for id := range s.Devices {
		devs = append(devs, id)
	}
	sort.Ints(devs)
	for _, id := range devs {
		d := s.Devices[id]
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
	nics := make([]int, 0, len(s.NICs))
	for id := range s.NICs {
		nics = append(nics, id)
	}
	sort.Ints(nics)
	for _, id := range nics {
		n := s.NICs[id]
		if n.TxOps == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w,
			"{\"record\":\"nic\",\"node\":%d,\"tx_ops\":%d,\"tx_busy_us\":%.3f,\"tx_stalls\":%d,\"tx_stall_us\":%.3f}\n",
			id, n.TxOps, us(n.TxBusy), n.TxStallCount, us(n.TxStall)); err != nil {
			return err
		}
	}
	classes := make([]string, 0, len(s.Fabric))
	for c := range s.Fabric {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		t := s.Fabric[c]
		if _, err := fmt.Fprintf(w,
			"{\"record\":\"fabric\",\"class\":%q,\"ops\":%d,\"wire_us\":%.3f,\"cpu_us\":%.3f}\n",
			c, t.Ops, us(t.Wire), us(t.HostCPU)); err != nil {
			return err
		}
	}
	schemes := make([]string, 0, len(s.Schemes))
	for n := range s.Schemes {
		schemes = append(schemes, n)
	}
	sort.Strings(schemes)
	for _, n := range schemes {
		sc := s.Schemes[n]
		if _, err := fmt.Fprintf(w,
			"{\"record\":\"sockets\",\"scheme\":%q,\"msgs\":%d,\"zerocopy_bytes\":%d,\"bcopy_bytes\":%d,"+
				"\"credit_stalls\":%d,\"credit_stall_us\":%.3f,\"pool_stalls\":%d,\"pool_stall_us\":%.3f,"+
				"\"window_stalls\":%d,\"window_stall_us\":%.3f}\n",
			n, sc.Msgs, sc.ZeroCopyBytes, sc.BCopyBytes,
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
