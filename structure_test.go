// The structural rules the design rests on, checked on the non-test
// files of this module as the dead-API gate type-checks them (scanRepo),
// through go/types rather than text: a comment or a string cannot trip a
// rule, and a named type cannot hide a map from one.
//
//	go test -run 'TestExportedAPI|TestStructural' -count=1 -v .
//
// runs both.
package ngdc_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// repoRules is what this module keeps to.
//
//   - No map: a one-sided datapath is words published by CAS, not a
//     host map behind a cost charge, so the verbs devices, the lock
//     manager and the two document caches index slices and bitsets, the
//     sockets schemes deliver in send order with no reorder map, and the
//     trace registry and the NICs are per node ID in slices.
//   - One way to open a run: runtime.ServiceOptions.NewEnv attaches the
//     registry and the fault plan to a fresh environment before any layer
//     is built over it, and nothing else creates one.
//   - Banned names: a removed twin of a mechanism that has one
//     implementation now. Each entry names what replaced it and the
//     commit that removed it. A mechanism with no name of its own, whose
//     return a tier-1 test catches by count, is not listed: DQNL's
//     Sleep(PollInterval) wait loop and a process per Fig 6 or E12
//     client each fail TestCatalogueHandOffBudget (CHANGES.md records
//     the restorations).
var repoRules = structuralRules{
	noMap:   []string{"internal/verbs", "internal/dlm", "internal/coopcache", "internal/dyncache", "internal/sockets", "internal/trace", "internal/fabric", "internal/storm", "internal/gma"},
	openRun: "ngdc/internal/sim.NewEnv",
	opener:  "internal/runtime/options.go",
	banned: []bannedName{
		{"", "AcquireAsync", false, "occupying an engine for a known time is sim.Resource.HoldAsync or Use (985b7c6)"},
		{"", "UseWith", false, "occupying an engine for a known time is sim.Resource.HoldAsync or Use (985b7c6)"},
		{"", "GrantTx", false, "a NIC Tx engine is held by fabric.NIC.TransmitAsync or AcquireTx (985b7c6)"},
		{"", "ConnectQP", false, "connections are per-device bitsets; there are no queue pairs (684ef8d)"},
		{"", "QPTo", false, "connections are per-device bitsets; there are no queue pairs (684ef8d)"},
		{"", "WriteImm", false, "a notification is a two-sided send to a bound RecvQueue (684ef8d)"},
		{"", "RecvImm", false, "a notification is a two-sided send to a bound RecvQueue (684ef8d)"},
		{"", "PostRead", false, "posted work is Device.PostList, one WR for a single op (684ef8d)"},
		{"", "PostWrite", false, "posted work is Device.PostList, one WR for a single op (684ef8d)"},
		{"", "PostCompareSwap", false, "posted work is Device.PostList, one WR for a single op (684ef8d)"},
		{"", "PostFetchAdd", false, "posted work is Device.PostList, one WR for a single op (684ef8d)"},
		{"", "connPinned", false, "a connection is one bit of a per-device bitset; none is pinned (684ef8d)"},
		{"", "Wake", false, "a parked process is woken with Env.WakeAfter(p, 0) (684ef8d)"},
		{"", "PostSendAt", false, "a callback send is verbs.Device.SendAsync (51f87b5)"},
		{"", "recvq", true, "a receive queue is bound once by Device.Bind, not looked up by service name (b2d1128)"},
		{"", "srslLockState", false, "the FIFO shared/exclusive lock queue is dlm.Queue (a1aee06)"},
		{"", "liveWaiter", false, "the live lock table runs dlm.Queue (a1aee06)"},
		{"", "grantHeadLocked", false, "the live lock table runs dlm.Queue (a1aee06)"},
		{"", "TraceStats.Table", false, "a snapshot merge is trace.Registry.Fold (a1aee06)"},
		{"internal/integrated/integrated.go", "ewma", true, "E16's loop runs reconfig.Rule (a1aee06)"},
		{"internal/integrated/integrated.go", "Threshold", true, "E16's loop runs reconfig.Rule (a1aee06)"},
		{"internal/integrated/integrated.go", "coldUntil", true, "E16's loop runs reconfig.Rule (a1aee06)"},
		{"", "Traced", true, "a traced run is opened by runtime.ServiceOptions.NewEnv, not a Traced twin (72a6cef)"},
		{"", "CascadeWith", false, "a run is opened by runtime.ServiceOptions.NewEnv (72a6cef)"},
		{"", "BandwidthWith", false, "a run is opened by runtime.ServiceOptions.NewEnv (72a6cef)"},
		{"", "ServiceOptions.Bind", false, "a run is opened by ServiceOptions.NewEnv, not bound after the network (72a6cef)"},
		{"internal/coopcache/", "spillWorker", false, "each node's demotions are one event chain (827d191)"},
		{"internal/coopcache/", "parkSpillIdle", false, "each node's demotions are one event chain (827d191)"},
		{"internal/coopcache/", `"spill-%d"`, false, "each node's demotions are one event chain, no daemon per node (827d191)"},
		{"internal/coopcache/", "SpillRegions", false, "a spill region is a plain lru.Ring per node (df60479)"},
		{"internal/coopcache/", "reqFree", false, "each Fig 6 client owns its request record (8498ffe)"},
		{"internal/coopcache/", "futFree", false, "each Fig 6 client owns its request record (8498ffe)"},
		{"internal/coopcache/", "insFree", false, "an install is one InstallAsync chain (11ab85c)"},
		{"internal/coopcache/", "Tier.Get", false, "a lookup is the Tier.GetAsync chain (11ab85c)"},
		{"internal/coopcache/", "Tier.Install", false, "an install is the Tier.InstallAsync chain (11ab85c)"},
		{"internal/coopcache/", "Directory.Redirect", false, "a directory change is one mutate chain (11ab85c)"},
		{"internal/ddss/", "acquireLock", false, "every ddss operation is one Op stepping through its model's script (d0ea10b)"},
		{"internal/ddss/", "readU64", false, "every ddss operation is one Op stepping through its model's script (d0ea10b)"},
		{"internal/ddss/", "hdrFree", false, "every ddss operation is one Op stepping through its model's script (d0ea10b)"},
		{"internal/ddss/", "PutOp", false, "every ddss operation is one Op stepping through its model's script (d0ea10b)"},
		{"internal/ddss/", "GetOp", false, "every ddss operation is one Op stepping through its model's script (d0ea10b)"},
		{"internal/ddss/", "chained", false, "every ddss model runs the one Op chain (d0ea10b)"},
		{"internal/dlm/", "ensurePoller", false, "N-CoSED's home poller is a timer chain on the lock record, started by startPoll (7cfb537)"},
		{"internal/dlm/", "pollName", false, "N-CoSED's home poller is a timer chain on the lock record, no process to name (7cfb537)"},
		{"internal/dlm/", "clientLoop", false, "N-CoSED's grants and successor announcements are handled by onClient, a verbs.Device.BindHandler function (7cfb537)"},
		{"internal/dlm/", "agentLoop", false, "N-CoSED's home agent is onAgent, a verbs.Device.BindHandler function (7cfb537)"},
		{"internal/dlm/", "serveGrants", false, "SRSL's grants are handled by onGrant, a verbs.Device.BindHandler function (7cfb537)"},
		{"", "Future", false, "a parked process is woken with Env.WakeAfter(p, 0) or ends an Await (c832141)"},
		{"", "NewFuture", false, "a parked process is woken with Env.WakeAfter(p, 0) or ends an Await (c832141)"},
		{"", "WaitAsync", false, "a callback waiter is scheduled with Env.After(0, fn) by whoever it waits on (c832141)"},
		// sync.WaitGroup stays usable outside the engine.
		{"internal/sim/", "WaitGroup", false, "a cohort is a count and a list of parked processes, woken with Env.WakeAfter(p, 0) (c832141)"},
		{"", "NewWaitGroup", false, "a cohort is a count and a list of parked processes, woken with Env.WakeAfter(p, 0) (c832141)"},
		{"internal/sim/", "PostSend", false, "a channel has one send, Chan.Send, which never blocks (b2b93e8)"},
	},
}

// structuralRules is what TestStructuralRules checks, apart from the
// module so that a fixture can be checked by the same code. Paths are
// slash-separated and relative to the first module's directory.
type structuralRules struct {
	// noMap lists the package directories whose non-test files hold no
	// expression or type expression whose type is a map, written as one
	// or through a named type. A struct of another package that holds a
	// map (*lru.Cache) is out of scope.
	noMap []string
	// openRun is the func that creates a simulated environment, as
	// pkgpath.Name, and opener the one non-test file of the first module
	// that calls it.
	openRun, opener string
	banned          []bannedName
}

// bannedName is an identifier no non-test file whose path starts with
// dir ("" for every file the scan checks) may declare or refer to. name
// is the identifier, Recv.Name for a method; with sub, any identifier
// that contains it. A quoted name is a string constant containing the
// text between the quotes.
type bannedName struct {
	dir, name string
	sub       bool
	why       string
}

// violation is one break of a rule, at file:line.
type violation struct{ at, rule, detail string }

func (v violation) String() string { return v.at + ": " + v.rule + ": " + v.detail }

func TestStructuralRules(t *testing.T) {
	r, err := scanRepo()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.structural(repoRules) {
		t.Error(v)
	}
}

// structural returns, sorted, every break of r in the checked packages,
// one per rule and line. A noMap directory or a banned name's dir that
// no checked file is in is a break too: the rule would check nothing.
func (s *apiScan) structural(r structuralRules) []violation {
	seen := map[string]bool{}
	var out []violation
	report := func(pos token.Pos, rule, detail string) {
		p := s.fset.Position(pos)
		at := fmt.Sprintf("%s:%d", s.rel(p.Filename), p.Line)
		if !seen[at+rule] {
			seen[at+rule] = true
			out = append(out, violation{at, rule, detail})
		}
	}
	scanned := map[string]bool{} // noMap dirs and banned names whose scope holds a checked file
	opened := false
	for _, c := range s.checked {
		dir := s.rel(filepath.Dir(s.fset.File(c.files[0].Pos()).Name()))
		inRoot := !slices.ContainsFunc(s.mods[1:], func(m apiModule) bool {
			return c.pkg.Path() == m.path || strings.HasPrefix(c.pkg.Path(), m.path+"/")
		})
		if slices.Contains(r.noMap, dir) {
			scanned[dir] = true
			for e, tv := range c.info.Types {
				if _, ok := tv.Type.Underlying().(*types.Map); ok {
					report(e.Pos(), "no map in "+dir, types.TypeString(tv.Type, types.RelativeTo(c.pkg)))
				}
			}
		}
		for _, f := range c.files {
			file := s.rel(s.fset.File(f.Pos()).Name())
			var banned []bannedName // the entries whose scope holds file
			for _, b := range r.banned {
				if strings.HasPrefix(file, b.dir) {
					banned = append(banned, b)
					scanned[b.name] = true
				}
			}
			// check reports obj, declared at id (use false) or referred to.
			check := func(id *ast.Ident, obj types.Object, use bool) {
				if obj == nil {
					return
				}
				name, method := obj.Name(), false
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					method = true
					if tn := recvTypeName(fn); tn != nil {
						name = tn.Name() + "." + name
					}
				}
				for _, b := range banned {
					if b.sub && strings.Contains(name, b.name) || b.name == obj.Name() || b.name == name {
						report(id.Pos(), "banned "+b.name, b.why)
					}
				}
				if use && inRoot && !method && obj.Pkg() != nil && obj.Pkg().Path()+"."+obj.Name() == r.openRun {
					if file == r.opener {
						opened = true
					} else {
						report(id.Pos(), "one way to open a run", fmt.Sprintf("calls %s; only %s does", r.openRun, r.opener))
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := c.info.Defs[n]; obj != nil {
						check(n, obj, false)
					} else {
						check(n, c.info.Uses[n], true)
					}
				case *ast.BasicLit:
					v := c.info.Types[n].Value
					if v == nil || v.Kind() != constant.String {
						break
					}
					for _, b := range banned {
						if lit, ok := strings.CutPrefix(b.name, `"`); ok && strings.Contains(constant.StringVal(v), strings.TrimSuffix(lit, `"`)) {
							report(n.Pos(), "banned "+b.name, b.why)
						}
					}
				}
				return true
			})
		}
	}
	if !opened {
		out = append(out, violation{r.opener, "one way to open a run", "no longer calls " + r.openRun})
	}
	for _, d := range r.noMap {
		if !scanned[d] {
			out = append(out, violation{d, "no map in " + d, "no checked package is there"})
		}
	}
	for _, b := range r.banned {
		if !scanned[b.name] {
			out = append(out, violation{b.dir, "banned " + b.name, "no checked file is under " + b.dir})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// rel returns path relative to the first module's directory, slash
// separated.
func (s *apiScan) rel(path string) string {
	r, err := filepath.Rel(s.mods[0].dir, path)
	if err != nil {
		return path
	}
	return filepath.ToSlash(r)
}

// TestStructuralRulesFixture checks the rules on a module written for
// them. It must list one planted break per rule: a map field, a map
// behind a local named type (its declaration and its field), a second
// caller of sim.NewEnv and a banned identifier of each kind (exact,
// contained, string constant), and a rule whose directory holds no
// checked file. It must not list a map in a _test.go file, a doc comment
// that quotes sim.NewEnv(, a field holding another package's struct that
// holds a map, or the text of a banned name in a comment.
func TestStructuralRulesFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n",
		"internal/sim/sim.go": `package sim

type Env struct{ seed int64 }

// NewEnv creates an environment. Open a run with runtime.Open, not with
// sim.NewEnv(seed): this comment trips nothing.
func NewEnv(seed int64) *Env { return &Env{seed} }
`,
		"internal/runtime/options.go": `package runtime

import "fix/internal/sim"

func Open() *sim.Env { return sim.NewEnv(0) }
`,
		"internal/lru/lru.go": `package lru

type Cache struct{ items map[int]int }

func New() *Cache { return &Cache{items: map[int]int{}} }
`,
		"internal/verbs/verbs.go": `package verbs

import "fix/internal/lru"

type table map[int]bool

type Device struct {
	conns  map[int]int
	seen   table
	cache  *lru.Cache
	recvqs []int
}

// Open builds a Device; AcquireAsync in a comment trips nothing.
func Open() *Device { return &Device{cache: lru.New()} }

func AcquireAsync() {}

const worker = "spill-%d"
`,
		"internal/verbs/verbs_test.go": `package verbs

var scratch = map[int]int{}
`,
		"cmd/app/main.go": `package main

import (
	"fix/internal/runtime"
	"fix/internal/sim"
	"fix/internal/verbs"
)

func main() {
	_, _, _ = runtime.Open(), sim.NewEnv(1), verbs.Open()
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := loadModules([]apiModule{{"fix", dir}})
	if err != nil {
		t.Fatal(err)
	}
	rules := structuralRules{
		noMap:   []string{"internal/verbs", "internal/gone"},
		openRun: "fix/internal/sim.NewEnv",
		opener:  "internal/runtime/options.go",
		banned: []bannedName{
			{"", "AcquireAsync", false, "r"},
			{"", "recvq", true, "r"},
			{"internal/verbs/", `"spill-%d"`, false, "r"},
			{"internal/gone/", "Gone", false, "r"},
		},
	}
	vs := s.structural(rules)
	var got []string
	for _, v := range vs {
		got = append(got, v.at+" "+v.rule)
	}
	want := []string{
		"cmd/app/main.go:10 one way to open a run",
		"internal/gone/ banned Gone",
		"internal/gone no map in internal/gone",
		"internal/verbs/verbs.go:11 banned recvq",
		"internal/verbs/verbs.go:17 banned AcquireAsync",
		`internal/verbs/verbs.go:19 banned "spill-%d"`,
		"internal/verbs/verbs.go:5 no map in internal/verbs",
		"internal/verbs/verbs.go:8 no map in internal/verbs",
		"internal/verbs/verbs.go:9 no map in internal/verbs",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
