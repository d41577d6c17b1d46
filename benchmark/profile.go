package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The per-layer CPU account folds a runtime/pprof CPU profile two ways.
// The profile is read straight from its gzip'd protobuf (profile.proto)
// with the few dozen lines of wire decoding below, so the benchmark
// needs neither `go tool pprof` at run time nor a module dependency.

// stackSample is one profile sample: function names leaf first, and the
// CPU nanoseconds the sample stands for.
type stackSample struct {
	stack []string
	ns    int64
}

// ownerPkgs are the internal packages that get their own
// <pkg>.cpu_ns_per_req metric; every other ngdc/internal package is
// charged to "services".
var ownerPkgs = []string{
	"sim", "fabric", "verbs", "sockets", "ddss", "dlm", "coopcache", "lru",
	"experiments", "workload", "cluster", "serve", "runtime",
}

const internalPrefix = "ngdc/internal/"

// ownerOf names the layer a sample is charged to under the owner cut:
// the innermost ngdc/internal/<pkg> frame on its stack; the benchmark's
// own main package when there is none ("bench"); otherwise the Go
// runtime ("goruntime": scheduler loops, GC workers).
func ownerOf(stack []string) string {
	bench := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, p := range ownerPkgs {
				if p == pkg {
					return pkg
				}
			}
			return "services"
		}
		if strings.HasPrefix(fn, "main.") {
			bench = true
		}
	}
	if bench {
		return "bench"
	}
	return "goruntime"
}

// leafClasses maps substrings of Go-runtime function names to the leaf
// cut's classes. Order matters: the first class with a matching
// substring wins.
var leafClasses = []struct {
	class string
	subs  []string
}{
	{"map", []string{"runtime.map", "internal/runtime/maps.", "runtime.aeshash", "runtime.memhash", "runtime.strhash"}},
	{"mem", []string{"runtime.malloc", "runtime.gc", "runtime.scan", "runtime.memmove",
		"runtime.memclr", "runtime.growslice", "runtime.makeslice", "runtime.newobject", "runtime.(*mheap)",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan)", "runtime.sweep",
		"runtime.bgscavenge", "runtime.markroot", "runtime.greyobject", "runtime.wbBuf",
		"runtime.bulkBarrier", "runtime.typedmemmove", "runtime.heapBits", "runtime.(*gcWork)",
		"runtime.(*gcBits)", "runtime.findObject", "runtime.spanOf", "runtime.sysUnused", "runtime.sysUsed",
		"runtime.madvise", "runtime.(*pageAlloc)", "runtime.(*scavengerState)", "runtime.tracealloc", "runtime.slicebytetostring",
		"runtime.deductAssistCredit", "runtime.nextFreeFast", "runtime.(*limiterEvent)", "runtime.(*gcControllerState)"}},
	{"syscall", []string{"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.", "runtime.entersyscall",
		"runtime.exitsyscall", "runtime.reentersyscall", "internal/poll.", "runtime.netpoll", "runtime.epoll"}},
	{"sched", []string{"runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready", "runtime.schedule",
		"runtime.findRunnable", "runtime.futex", "runtime.chansend", "runtime.chanrecv", "runtime.send", "runtime.recv",
		"runtime.runq", "runtime.mcall", "runtime.notesleep", "runtime.notewakeup", "runtime.notetsleep", "runtime.wakep",
		"runtime.startm", "runtime.stopm", "runtime.lock", "runtime.unlock", "runtime.osyield", "runtime.usleep",
		"runtime.selectgo", "runtime.sellock", "runtime.selunlock", "runtime.execute", "runtime.gosched",
		"runtime.casgstatus", "runtime.resetspinning", "runtime.pidleget", "runtime.pidleput", "runtime.mPark", "runtime.mput",
		"runtime.mget", "runtime.handoffp", "runtime.acquirep", "runtime.releasep", "runtime.checkTimers", "runtime.(*timers)",
		"runtime.(*timer)", "runtime.stealWork", "runtime.gogo", "runtime.goexit", "runtime.gdestroy", "runtime.newproc",
		"runtime.gfget", "runtime.gfput", "runtime.systemstack", "runtime.(*waitq)", "runtime.acquireSudog", "runtime.releaseSudog",
		"runtime.(*mLockProfile)", "runtime.nanotime", "runtime.dropg", "runtime.globrunq", "runtime.injectglist", "runtime.semrelease",
		"runtime.semacquire", "sync.", "internal/sync.", "sync/atomic."}},
}

// isGoRuntime reports whether fn belongs to the Go runtime or the
// standard library below the program — the frames the leaf cut looks
// through.
func isGoRuntime(fn string) bool {
	return !strings.HasPrefix(fn, internalPrefix) && !strings.HasPrefix(fn, "main.")
}

// leafOf names a sample's class under the leaf cut: walking outward
// from the leaf through Go-runtime frames, the first frame whose name
// matches a class decides (so mallocgc's helpers count as memory and
// park_m's as hand-off); a sample whose leaf is program code, or whose
// runtime frames match nothing, is "other".
func leafOf(stack []string) string {
	for _, fn := range stack {
		if !isGoRuntime(fn) {
			break
		}
		for _, c := range leafClasses {
			for _, sub := range c.subs {
				if strings.Contains(fn, sub) {
					return c.class
				}
			}
		}
	}
	return "other"
}

// fold sums sample nanoseconds by key(sample.stack). The values of the
// result always sum to the profile's total.
func fold(samples []stackSample, key func([]string) string) (byKey map[string]int64, total int64) {
	byKey = map[string]int64{}
	for _, s := range samples {
		byKey[key(s.stack)] += s.ns
		total += s.ns
	}
	return byKey, total
}

// --- profile.proto decoding -------------------------------------------

var errTruncated = errors.New("profile: truncated protobuf")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

// field reads the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are
// skipped and reported with data == nil and val == 0.
func (p *pbuf) field() (num int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return num, val, data, err
}

func (p *pbuf) skip(n int) error {
	if len(p.b) < n {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarint appends a repeated integer field's values, packed
// (data != nil) or not.
func repeatedVarint(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzip'd pprof CPU profile into stack samples.
// The sample value used is the last one of each sample (cpu/nanoseconds
// in a runtime/pprof CPU profile).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		ns   int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost inlined frame first
		funcName = map[uint64]uint64{}   // function id → string-table index
		strs     []string
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		msg := pbuf{data}
		switch num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeatedVarint(s.locs, v, d)
				case 2:
					vals, err = repeatedVarint(vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.ns = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					line := pbuf{d}
					for len(line.b) > 0 {
						ln, lv, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				n, v, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{ns: s.ns}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				st.stack = append(st.stack, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}
