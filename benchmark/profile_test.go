package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"reflect"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// readTraces parses `go tool pprof -traces` text: blocks separated by
// dashed lines, the first line of a block carrying the sample's time.
func readTraces(t *testing.T, path string) []stackSample {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []stackSample
	var cur *stackSample
	for _, line := range strings.Split(string(data), "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "-----"):
			cur = nil
		case len(f) == 2 && strings.HasSuffix(f[0], "ms") && cur == nil:
			ms, err := strconv.Atoi(strings.TrimSuffix(f[0], "ms"))
			if err != nil {
				t.Fatalf("bad sample line %q: %v", line, err)
			}
			out = append(out, stackSample{ns: int64(ms) * 1e6, stack: []string{f[1]}})
			cur = &out[len(out)-1]
		case len(f) == 1 && cur != nil:
			cur.stack = append(cur.stack, f[0])
		}
	}
	return out
}

func TestFoldCutsOnCannedTraces(t *testing.T) {
	samples := readTraces(t, "testdata/profile.traces")
	if len(samples) != 9 {
		t.Fatalf("fixture has %d samples, want 9", len(samples))
	}
	const ms = int64(1e6)
	owner, total := fold(samples, ownerOf)
	wantOwner := map[string]int64{
		"goruntime": 40 * ms, "verbs": 20 * ms, "sim": 40 * ms, "lru": 10 * ms, "runtime": 50 * ms,
		"bench": 10 * ms, "services": 20 * ms, "dlm": 10 * ms,
	}
	if !reflect.DeepEqual(owner, wantOwner) {
		t.Errorf("owner cut = %v, want %v", owner, wantOwner)
	}
	leaf, leafTotal := fold(samples, leafOf)
	wantLeaf := map[string]int64{"sched": 70 * ms, "map": 20 * ms, "mem": 20 * ms, "syscall": 50 * ms, "other": 40 * ms}
	if !reflect.DeepEqual(leaf, wantLeaf) {
		t.Errorf("leaf cut = %v, want %v", leaf, wantLeaf)
	}
	// Both cuts partition the profile: nothing is lost or counted twice.
	for name, cut := range map[string]map[string]int64{"owner": owner, "leaf": leaf} {
		var sum int64
		for _, ns := range cut {
			sum += ns
		}
		if sum != 200*ms {
			t.Errorf("%s cut sums to %d ns, want %d", name, sum, 200*ms)
		}
	}
	if total != 200*ms || leafTotal != total {
		t.Errorf("totals %d and %d, want %d", total, leafTotal, 200*ms)
	}
}

// --- a minimal profile.proto encoder, to test the decoder against ----------

func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	b = pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(data)))
	return append(b, data...)
}

func pbPacked(b []byte, field int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = pbVarint(p, v)
	}
	return pbBytes(b, field, p)
}

func TestParseProfileDecodesPackedUnpackedAndInlined(t *testing.T) {
	strs := []string{"", "leaf.inlined", "leaf.outer", "root"}
	var prof []byte
	// Sample 1: packed location ids and values [count, ns].
	prof = pbBytes(prof, 2, pbPacked(pbPacked(nil, 1, 1, 2), 2, 3, 30))
	// Sample 2: unpacked single location, unpacked values.
	prof = pbBytes(prof, 2, pbUint(pbUint(pbUint(nil, 1, 2), 2, 1), 2, 10))
	// Location 1 has two lines: an inlined function and its caller.
	loc1 := pbUint(nil, 1, 1)
	loc1 = pbBytes(loc1, 4, pbUint(nil, 1, 1))
	loc1 = pbBytes(loc1, 4, pbUint(nil, 1, 2))
	prof = pbBytes(prof, 4, loc1)
	prof = pbBytes(prof, 4, pbBytes(pbUint(nil, 1, 2), 4, pbUint(nil, 1, 3)))
	for id := uint64(1); id <= 3; id++ {
		prof = pbBytes(prof, 5, pbUint(pbUint(nil, 1, id), 2, id))
	}
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	// A fixed64 field the decoder has no use for must be skipped.
	prof = append(pbVarint(prof, 9<<3|1), 1, 2, 3, 4, 5, 6, 7, 8)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()
	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{stack: []string{"leaf.inlined", "leaf.outer", "root"}, ns: 30},
		{stack: []string{"root"}, ns: 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseProfile = %+v, want %+v", got, want)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

// TestParseProfileReadsRuntimePprof checks the decoder against what
// runtime/pprof really writes.
func TestParseProfileReadsRuntimePprof(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	x := uint64(1)
	for t0 := time.Now(); time.Since(t0) < 150*time.Millisecond; {
		x = x*6364136223846793005 + 1442695040888963407
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, total := fold(samples, ownerOf)
	if len(samples) == 0 || total <= 0 {
		t.Fatalf("no samples from a 150 ms spin (x=%d)", x)
	}
	for _, s := range samples {
		if len(s.stack) == 0 || s.stack[0] == "" {
			t.Fatalf("sample without function names: %+v", s)
		}
	}
}
