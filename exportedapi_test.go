// The dead-API gate: every exported identifier in internal/ and in the
// root facade, every unexported package-level function and every
// unexported struct field there has a non-test caller or reader in this
// module or in benchmark/, every parameter of a function there is read,
// and every field of an internal/ options struct a non-test setter and a
// reader, or a line in testdata/exportedapi.allow saying what needs it.
// The allowlist only shrinks: a line whose identifier gained a caller or
// no longer exists fails the gate too.
//
//	go test -run TestExportedAPI -count=1 -v .
//
// prints the remaining allowlist and counts the option fields.
package ngdc_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const exportedAPIAllowlist = "testdata/exportedapi.allow"

func TestExportedAPIHasCallers(t *testing.T) {
	r, err := scanRepo()
	if err != nil {
		t.Fatal(err)
	}
	unused, options := r.unused, r.options
	allow, err := readAPIAllowlist(exportedAPIAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	missing, stale := diffAPIAllowlist(unused, allow)
	for _, id := range missing {
		t.Errorf("%s has no non-test caller or reader: use it, delete it, or list it in %s with what needs it", id, exportedAPIAllowlist)
	}
	for _, id := range stale {
		t.Errorf("%s: stale line in %s (the identifier has a caller now or no longer exists); delete it", id, exportedAPIAllowlist)
	}
	if testing.Verbose() {
		for _, id := range unused {
			if r, ok := allow[id]; ok {
				t.Logf("%-40s # %s", id, r)
			}
		}
		t.Logf("%d identifiers have no non-test caller, reader or setter", len(unused))
		fields, unset := 0, 0
		for _, o := range options {
			t.Logf("%-28s %2d option fields, %2d set by no non-test code", o.name, o.fields, o.unset)
			fields += o.fields
			unset += o.unset
		}
		t.Logf("%d option fields in %d structs, %d set by no non-test code", fields, len(options), unset)
	}
}

// TestExportedAPIGateFixture runs the gate on a module written for it.
// It must list an export only a test calls, one nothing calls, an
// interface method called through no interface, a type referenced only
// inside its own declaration, a facade export nothing calls, a facade
// enum and an internal one none of whose members is called (the internal
// type named only by its constants), an unexported function nothing
// calls, a field that is written and never read, a field only a test
// reads, an unused constant whose type the package neither declares nor
// aliases, and four option fields: one only its package's Default* func
// sets, to a literal, one only a zero-fill if sets, one only a test sets
// and the sibling of one set through promotion. It must not list a
// String reached through fmt, a method called on a generic instance, a
// method reached through an interface its type satisfies, the siblings
// of a called enum constant, the fields of a struct used as a map key, an
// embedded field reached through promotion, an option field Default*
// sets from its parameter, one another package sets, one set by
// assigning its whole embedded struct, or a field of a type named
// Params. Of parameters and the option fields they reach, it must list
// an unread named parameter, a blank one, one forwarded two calls deep
// into an unread one (and both on the way), an option field read only as
// such an argument and one never read; it must not list an unread
// parameter of a method reached through an interface, one of a func
// passed as a value, one forwarded and read elsewhere, or one forwarded
// into an interface method. The allowlist check must report the unlisted
// identifier and both kinds of stale line.
func TestExportedAPIGateFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n",
		"internal/p/p.go": `package p

import (
	"fmt"
	"time"
)

type Shape interface {
	Area() int
	Perimeter() int
}

type Square struct{ N int }

func (s Square) Area() int      { return s.N * s.N }
func (s Square) Perimeter() int { return 4 * s.N }
func (s Square) String() string { return fmt.Sprint("square ", s.N) }

type Box[T any] struct{ v T }

func (b *Box[T]) Put(v T) { b.v = v }
func (b *Box[T]) Get() T  { return b.v }

func TestOnly() int { return 1 }

func Unused() {}

type Orphan struct{ Next *Orphan }

func (o *Orphan) Self() *Orphan { return o.Self() }

type Shade int

const (
	Light Shade = iota
	Dark
)

type Size int

const (
	Small Size = iota
	Large
)

type Mode int

const (
	Fast Mode = iota
	Slow
)

const (
	Tick time.Duration = 1
	Tock time.Duration = 2
)

func unusedHelper() int { return unusedHelper() }

type key struct{ a, b int }

type table struct{ rows map[key]int }

type Counter struct {
	table
	hits int
	seen bool
}

func NewCounter() *Counter { return &Counter{table: table{rows: map[key]int{}}} }

func (c *Counter) Add(a, b int) int {
	c.hits++
	c.seen = true
	c.rows[key{a, b}]++
	return len(c.rows)
}

type Options struct{ Lit, Zero, Tested, Arg, Other int }

func DefaultOptions(arg int) Options { return Options{Lit: 1, Arg: arg} }

func Run(o Options) int {
	if o.Zero == 0 {
		o.Zero = 2
	}
	return o.Lit + o.Zero + o.Tested + o.Arg + o.Other
}

type BaseOptions struct{ Seed int64 }

type RunConfig struct{ BaseOptions }

func NewRunConfig(b BaseOptions) (c RunConfig) {
	c.BaseOptions = b
	return c
}

type Params struct{ Lat int }

func DefaultParams() Params { return Params{Lat: 5} }

type LeafOptions struct{ Set, Unset int }

type TreeConfig struct{ LeafOptions }

func Scale(n, unused int) int { return 2 * n }

func Blank(n int, _ string) int { return n }

type EnvConfig struct {
	Seed  int64
	Never int
}

func Open(c EnvConfig) int { return Outer(c.Seed) }

func Outer(seed int64) int { return middle(seed) }

func middle(seed int64) int { return inner(seed) }

func inner(seed int64) int { return 1 }

func Both(n int64) int { return inner(n) + int(n) }

type Sink interface{ Take(v int) }

type Drop struct{}

func (Drop) Take(v int) {}

func Feed(s Sink, v int) { s.Take(v) }

func Handler(code int) int { return 0 }
`,
		"internal/p/p_test.go": `package p

import "testing"

func TestP(t *testing.T) {
	_ = TestOnly() + Square{}.Perimeter() + Run(Options{Tested: 1})
	if c := NewCounter(); c.Add(1, 2) != 1 || !c.seen {
		t.Fatal()
	}
}
`,
		"fix.go": `package fix

import "fix/internal/p"

type (
	Shade = p.Shade
	Size  = p.Size
)

const (
	Light = p.Light
	Dark  = p.Dark
	Small = p.Small
	Large = p.Large
)

func NewCounter() *p.Counter { return p.NewCounter() }

func Lonely() int { return Tally(1) }

func Tally(n int) int { return n + 1 }
`,
		"cmd/app/main.go": `package main

import (
	"fmt"

	"fix"
	"fix/internal/p"
)

func main() {
	var s p.Shape = p.Square{N: 2}
	fmt.Println(s.Area(), p.Square{N: 3}, fix.Light, fix.NewCounter().Add(1, 2), p.Tick)
	var b p.Box[int]
	b.Put(1)
	o := p.DefaultOptions(3)
	o.Other = 4
	fmt.Println(p.Run(o), p.NewRunConfig(p.BaseOptions{}).Seed, p.DefaultParams())
	var tc p.TreeConfig
	tc.Set = 1
	fmt.Println(tc.Set)
	fmt.Println(p.Scale(1, 2), p.Blank(1, ""), p.Open(p.EnvConfig{Seed: 1, Never: 2}), p.Both(3))
	var k p.Sink = p.Drop{}
	k.Take(1)
	p.Feed(k, 2)
	h := p.Handler
	fmt.Println(h(1))
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
	unused, options := s.unused(), s.options
	want := []string{
		"fix.Large", "fix.Lonely", "fix.Size", "fix.Small",
		"p.Blank(#2)", "p.Box.Get", "p.Counter.hits", "p.Counter.seen", "p.EnvConfig.Never", "p.EnvConfig.Seed",
		"p.Fast", "p.LeafOptions.Unset", "p.Mode",
		"p.Options.Lit", "p.Options.Tested", "p.Options.Zero", "p.Orphan", "p.Orphan.Self", "p.Outer(seed)",
		"p.Scale(unused)", "p.Shape.Perimeter", "p.Slow", "p.Square.Perimeter", "p.TestOnly", "p.Tock", "p.Unused",
		"p.inner(seed)", "p.middle(seed)", "p.unusedHelper",
	}
	if fmt.Sprint(unused) != fmt.Sprint(want) {
		t.Fatalf("unused = %v, want %v", unused, want)
	}
	const wantOptions = "[{p.BaseOptions 1 0} {p.EnvConfig 2 0} {p.LeafOptions 2 1} {p.Options 5 3} {p.RunConfig 0 0} {p.TreeConfig 0 0}]"
	if got := fmt.Sprint(options); got != wantOptions {
		t.Fatalf("options = %s, want %s", got, wantOptions)
	}

	allow := map[string]string{}
	for _, id := range want {
		allow[id] = "r"
	}
	if missing, stale := diffAPIAllowlist(unused, allow); missing != nil || stale != nil {
		t.Fatalf("exact allowlist: missing %v, stale %v", missing, stale)
	}
	delete(allow, "p.Unused")
	allow["p.Square.Area"] = "r" // has a caller
	allow["p.Gone"] = "r"        // does not exist
	missing, stale := diffAPIAllowlist(unused, allow)
	if fmt.Sprint(missing) != "[p.Unused]" || fmt.Sprint(stale) != "[p.Gone p.Square.Area]" {
		t.Fatalf("missing %v, stale %v; want [p.Unused] and [p.Gone p.Square.Area]", missing, stale)
	}
}

// apiModule is a module's import path and its directory.
type apiModule struct{ path, dir string }

// repoScan is the scan of this module and benchmark/ with the gate's
// result: one type-check per test binary, which the gate and the
// structural rules (structure_test.go) share.
type repoScan struct {
	*apiScan
	unused []string
}

var scanRepo = sync.OnceValues(func() (repoScan, error) {
	s, err := loadModules([]apiModule{{"ngdc", "."}, {"ngdc/benchmark", "benchmark"}})
	if err != nil {
		return repoScan{}, err
	}
	return repoScan{s, s.unused()}, nil
})

// loadModules type-checks every non-test package of mods.
func loadModules(mods []apiModule) (*apiScan, error) {
	s := &apiScan{
		fset: token.NewFileSet(),
		mods: mods,
		pkgs: map[string]*types.Package{},
		used: map[types.Object]bool{},
		read: map[*types.Var]bool{},
		set:  map[*types.Var]bool{},
		own:  map[types.Object][][2]token.Pos{},

		params:     map[*types.Var]*valueUse{},
		fieldUses:  map[*types.Var]*valueUse{},
		taken:      map[*types.Func]bool{},
		implements: map[*types.Func]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)
	for _, m := range mods {
		err := filepath.WalkDir(m.dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != m.dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != m.dir {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir // another module
				}
			}
			rel, _ := filepath.Rel(m.dir, path)
			_, err = s.load(filepath.ToSlash(filepath.Join(m.path, rel)), path)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

type apiScan struct {
	fset *token.FileSet
	mods []apiModule
	std  types.ImporterFrom
	pkgs map[string]*types.Package // checked module packages by path
	used map[types.Object]bool
	read map[*types.Var]bool             // fields read by non-test code
	set  map[*types.Var]bool             // fields non-test code sets (recordSets)
	own  map[types.Object][][2]token.Pos // spans of each object's own declaration
	// ifaceUses holds each interface type whose methods a module file
	// calls, with the names called.
	ifaceUses []ifaceUse
	listed    []*types.Package // mods[0]'s root package and the packages under its internal/
	options   []optionType
	checked   []checkedPkg // every module package, in load order

	params     map[*types.Var]*valueUse // every parameter of a module func declaration
	fieldUses  map[*types.Var]*valueUse // how non-test code reads each field
	taken      map[*types.Func]bool     // funcs used other than as a call's callee
	implements map[*types.Func]bool     // methods named in an interface their type satisfies
}

// valueUse is how non-test code uses a parameter or a field: read, or
// only passed on as a direct argument of static calls, into the callee
// parameters listed.
type valueUse struct {
	fn   *types.Func // a parameter's func; nil for a field
	read bool
	into []*types.Var
}

// use records one use: a read, or (to non-nil) an argument landing in to.
func (u *valueUse) use(to *types.Var) {
	if to == nil {
		u.read = true
	} else {
		u.into = append(u.into, to)
	}
}

// passedOnly reports whether every use is an argument landing in an
// unread parameter.
func (u *valueUse) passedOnly(unread map[*types.Var]bool) bool {
	if u.read {
		return false
	}
	for _, to := range u.into {
		if !unread[to] {
			return false
		}
	}
	return true
}

// optionType is an options struct the gate checks: its fields and how
// many of them no non-test code sets.
type optionType struct {
	name          string
	fields, unset int
}

// checkedPkg is a type-checked module package: its non-test files and
// what the checker recorded of them.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

type ifaceUse struct {
	iface types.Type
	names map[string]bool
}

func (s *apiScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *apiScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	for _, m := range s.mods {
		if path == m.path || strings.HasPrefix(path, m.path+"/") {
			return s.load(path, filepath.Join(m.dir, strings.TrimPrefix(path, m.path)))
		}
	}
	return s.std.ImportFrom(path, dir, mode)
}

// load type-checks the non-test files of the package at dir once and
// records what they reference. A directory without Go files yields nil.
func (s *apiScan) load(path, dir string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		s.pkgs[path] = nil
		return nil, nil
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	s.checked = append(s.checked, checkedPkg{pkg, files, info})
	if path == s.mods[0].path || strings.HasPrefix(path, s.mods[0].path+"/internal/") {
		s.listed = append(s.listed, pkg)
	}
	s.record(files, info)
	for _, f := range files {
		s.recordSets(f, info, pkg)
	}
	return pkg, nil
}

func (s *apiScan) record(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, d := range f.Decls {
			span := [2]token.Pos{d.Pos(), d.End()}
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[d.Name]
				s.own[fn] = append(s.own[fn], span)
				ps := fn.Type().(*types.Signature).Params()
				for i := 0; i < ps.Len(); i++ {
					s.params[ps.At(i)] = &valueUse{fn: fn.(*types.Func)}
				}
				if d.Recv != nil {
					if tn := recvTypeName(fn); tn != nil {
						s.own[tn] = append(s.own[tn], span)
					}
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						tn := info.Defs[sp.Name]
						s.own[tn] = append(s.own[tn], [2]token.Pos{sp.Pos(), sp.End()})
					case *ast.ValueSpec:
						// An enum constant's type names its unit, not a use.
						if id, ok := sp.Type.(*ast.Ident); ok && d.Tok == token.CONST {
							if tn, ok := info.Uses[id].(*types.TypeName); ok {
								s.own[tn] = append(s.own[tn], [2]token.Pos{sp.Pos(), sp.End()})
							}
						}
					}
				}
			}
		}
		s.recordReads(f, info)
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				s.useIface(recv.Type(), fn.Name())
			}
		}
		if s.ownUse(obj, id.Pos()) {
			continue
		}
		s.used[obj] = true
	}
}

// recordReads marks the struct fields f reads, records each use of a
// parameter and each field read as a read or as an argument passed on
// (see valueUse), and marks the funcs f takes as values.
func (s *apiScan) recordReads(f *ast.File, info *types.Info) {
	written := map[ast.Expr]bool{}
	callee := map[*ast.Ident]bool{}
	passed := map[ast.Expr]*types.Var{} // argument -> the callee parameter it lands in
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				written[l] = true
			}
		case *ast.IncDecStmt:
			written[n.X] = true
		case *ast.CallExpr:
			id, fn := staticCallee(n, info)
			callee[id] = true
			for i, a := range n.Args {
				if fn != nil {
					passed[ast.Unparen(a)] = landing(fn, i)
				}
			}
		case *ast.Ident:
			switch obj := info.Uses[n].(type) {
			case *types.Var:
				if u := s.params[obj]; u != nil {
					u.use(passed[n])
				}
			case *types.Func:
				if !callee[n] {
					s.taken[obj.Origin()] = true
				}
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil {
				break
			}
			path := sel.Index()
			if sel.Kind() == types.FieldVal && !written[n] {
				field := sel.Obj().(*types.Var).Origin()
				s.read[field] = true
				s.fieldUse(field).use(passed[n])
			}
			// Every embedded field the selector is promoted through.
			t := sel.Recv()
			for _, i := range path[:len(path)-1] {
				st, ok := deref(t).Underlying().(*types.Struct)
				if !ok {
					break
				}
				s.read[st.Field(i).Origin()] = true
				t = st.Field(i).Type()
			}
		case *ast.MapType:
			s.readAllFields(info.Types[n.Key].Type)
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				s.readAllFields(info.Types[n.X].Type)
			}
		}
		return true
	})
}

// readAllFields marks every field of t, a struct or a named struct, read:
// hashing or comparing a struct reads each field.
func (s *apiScan) readAllFields(t types.Type) {
	if t == nil {
		return
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			s.read[st.Field(i).Origin()] = true
			s.fieldUse(st.Field(i).Origin()).use(nil)
		}
	}
}

// fieldUse returns field's valueUse, creating it.
func (s *apiScan) fieldUse(field *types.Var) *valueUse {
	u := s.fieldUses[field]
	if u == nil {
		u = &valueUse{}
		s.fieldUses[field] = u
	}
	return u
}

// staticCallee returns the identifier call names its function by, and
// the function when the call is static: to a package-level func or a
// method of a concrete type, generic ones as their origin.
func staticCallee(call *ast.CallExpr, info *types.Info) (*ast.Ident, *types.Func) {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		if sel := info.Selections[f]; sel != nil && sel.Kind() != types.MethodVal {
			return nil, nil // a method expression or a func-typed field
		}
		id = f.Sel
	default:
		return nil, nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return id, nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return id, nil
	}
	return id, fn.Origin()
}

// landing returns the parameter of fn that a call's i-th argument lands
// in: the variadic one for every argument past the fixed ones.
func landing(fn *types.Func, i int) *types.Var {
	ps := fn.Type().(*types.Signature).Params()
	if i >= ps.Len() {
		i = ps.Len() - 1
	}
	return ps.At(i)
}

// recordSets marks the struct fields f sets. A set is a composite-literal
// key (every field, for a literal without keys), or a selector that an
// assignment, op-assignment, ++/-- or & targets; it sets every field the
// selector goes through, embedded ones included. A struct value set as a
// whole sets each of its fields. A write in the field's own package that
// only fills in a default does not count: in a Default* func or a
// withDefaults method, or under an if that tests the field for zero,
// with a value that uses no parameter of the enclosing func.
func (s *apiScan) recordSets(f *ast.File, info *types.Info, pkg *types.Package) {
	for _, d := range f.Decls {
		fn, _ := d.(*ast.FuncDecl)
		params := map[types.Object]bool{}
		if fn != nil {
			for _, l := range []*ast.FieldList{fn.Recv, fn.Type.Params} {
				if l == nil {
					continue
				}
				for _, fld := range l.List {
					for _, id := range fld.Names {
						params[info.Defs[id]] = true
					}
				}
			}
		}
		// fills reports whether writing value to field at the top of
		// stack only fills in the field's default.
		var stack []ast.Node
		fills := func(field *types.Var, value ast.Expr) bool {
			if fn == nil || value == nil || field.Pkg() != pkg || usesAny(value, info, params) {
				return false
			}
			if name := fn.Name.Name; fn.Recv == nil && strings.HasPrefix(name, "Default") || fn.Recv != nil && name == "withDefaults" {
				return true
			}
			for i := len(stack) - 2; i >= 0; i-- {
				if ifs, ok := stack[i].(*ast.IfStmt); ok && stack[i+1] == ifs.Body && testsZero(ifs.Cond, field, info) {
					return true
				}
			}
			return false
		}
		mark := func(field *types.Var, value ast.Expr) {
			if !fills(field, value) {
				s.setField(field, value)
			}
		}
		// target marks the field e selects, set to value, and the fields
		// it is selected through, which a write into them sets too.
		target := func(e ast.Expr, value ast.Expr) {
			for first := true; ; first = false {
				se, ok := ast.Unparen(e).(*ast.SelectorExpr)
				if !ok || info.Selections[se] == nil || info.Selections[se].Kind() != types.FieldVal {
					return
				}
				sel := info.Selections[se]
				t := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					st, ok := deref(t).Underlying().(*types.Struct)
					if !ok {
						break
					}
					s.set[st.Field(i).Origin()] = true
					t = st.Field(i).Type()
				}
				if field := sel.Obj().(*types.Var).Origin(); first {
					mark(field, value)
				} else {
					s.set[field] = true
				}
				e = se.X
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					var value ast.Expr
					if len(n.Lhs) == len(n.Rhs) {
						value = n.Rhs[i]
					}
					target(l, value)
				}
			case *ast.IncDecStmt:
				target(n.X, nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(n.X, nil)
				}
			case *ast.CompositeLit:
				st, ok := deref(info.Types[n].Type).Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if field, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							mark(field.Origin(), kv.Value)
						}
					} else {
						mark(st.Field(i).Origin(), el)
					}
				}
			}
			return true
		})
	}
}

// setField marks field set. An embedded struct set to a value that is
// not a literal is set as a whole: so is each of its own fields.
func (s *apiScan) setField(field *types.Var, value ast.Expr) {
	s.set[field] = true
	if _, lit := value.(*ast.CompositeLit); lit || !field.Embedded() {
		return
	}
	if st, ok := field.Type().Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			s.setField(st.Field(i).Origin(), nil)
		}
	}
}

// usesAny reports whether e refers to one of objs.
func usesAny(e ast.Expr, info *types.Info, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// testsZero reports whether cond compares field with == or <= to a zero
// constant or nil.
func testsZero(cond ast.Expr, field *types.Var, info *types.Info) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.EQL && b.Op != token.LEQ {
			return !found
		}
		isField := func(e ast.Expr) bool {
			se, ok := e.(*ast.SelectorExpr)
			return ok && info.Selections[se] != nil && info.Selections[se].Obj() == types.Object(field)
		}
		isZero := func(e ast.Expr) bool {
			tv := info.Types[e]
			return tv.IsNil() || tv.Value != nil && (tv.Value.ExactString() == "0" || tv.Value.ExactString() == `""`)
		}
		if isField(b.X) && isZero(b.Y) || isField(b.Y) && isZero(b.X) {
			found = true
		}
		return !found
	})
	return found
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func (s *apiScan) ownUse(obj types.Object, pos token.Pos) bool {
	for _, sp := range s.own[obj] {
		if sp[0] <= pos && pos < sp[1] {
			return true
		}
	}
	return false
}

func (s *apiScan) useIface(t types.Type, name string) {
	for _, u := range s.ifaceUses {
		if types.Identical(u.iface, t) {
			u.names[name] = true
			return
		}
	}
	s.ifaceUses = append(s.ifaceUses, ifaceUse{t, map[string]bool{name: true}})
}

func recvTypeName(fn types.Object) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// unused returns, sorted, the identifiers declared in mods[0]'s root
// package or under its internal/ that no non-test file references, each
// as pkg.Name, pkg.Recv.Name or pkg.Type.field, with pkg the package's
// name for the root and its path relative to internal/ otherwise, and
// fills s.options with the options structs it checked.
//
// Listed are the exported package-level funcs, types, vars and consts,
// the exported methods of every named type (interface methods included),
// the unexported package-level funcs, and the unexported fields of every
// package-level struct type that no non-test file reads. Exported fields
// are not listed: fmt and encoding/json read them by reflection. A
// reference inside the identifier's own declaration (a method's
// receiver, a recursive call, an enum constant's type) does not count. A
// method reached through an interface counts as used when that
// interface's method is used, and fmt.Stringer's String and error's Error
// always are. A method of a generic type counts as used when any
// instance's is. A type a package declares or aliases and the package's
// constants of that type are one enum unit, listed only when none of
// them is used. A field is read by any selector that is not the whole
// left side of an assignment or increment; an embedded field by every
// selector promoted through it; and every field of a struct used as a map
// key or compared with == by that use.
//
// An options struct is an exported struct type under internal/ whose name
// is or ends in Options or Config. Its fields, embedded ones aside, are
// listed when no non-test file sets them away from their default (see
// recordSets), or when every non-test read of them, if any, is an
// argument landing in an unread parameter. fabric.Params is a
// calibration, swept field by field, and is no options struct.
//
// The unread parameters of the funcs and methods declared there are
// listed too, each as pkg.[Recv.]Func(name), or Func(#n) for the blank or
// unnamed n-th one (see unreadParams).
func (s *apiScan) unused() []string {
	// fmt.Stringer and error are called by the standard library.
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	s.useIface(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String", str)}, nil).Complete(), "String")
	s.useIface(types.Universe.Lookup("error").Type(), "Error")
	for _, pkg := range s.listed {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				s.useThroughIfaces(tn.Type().(*types.Named))
			}
		}
	}
	unread := s.unreadParams()

	var out []string
	for _, pkg := range s.listed {
		prefix := pkg.Name() + "."
		if pkg.Path() != s.mods[0].path {
			prefix = strings.TrimPrefix(pkg.Path(), s.mods[0].path+"/internal/") + "."
		}
		scope := pkg.Scope()
		enumUsed := s.enumUnits(scope)
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			_, isFunc := obj.(*types.Func)
			switch {
			case obj.Exported():
				if !s.used[obj] && !enumUsed[enumOf(obj)] {
					out = append(out, prefix+name)
				}
			case isFunc && name != "init" && name != "main":
				if !s.used[obj] {
					out = append(out, prefix+name)
				}
			}
			if isFunc {
				out = append(out, paramIDs(prefix+name, obj.(*types.Func), unread)...)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for _, m := range methods(named) {
				if m.Exported() && !s.used[m] {
					out = append(out, prefix+name+"."+m.Name())
				}
				out = append(out, paramIDs(prefix+name+"."+m.Name(), m, unread)...)
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			opt := optionType{name: prefix + name}
			inScope := pkg.Path() != s.mods[0].path && obj.Exported() && (strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config"))
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				switch {
				case !f.Exported() && !s.read[f]:
					out = append(out, prefix+name+"."+f.Name())
				case inScope && !f.Embedded() && (!s.set[f] || s.fieldUses[f] == nil || s.fieldUses[f].passedOnly(unread)):
					out = append(out, prefix+name+"."+f.Name())
				}
				if inScope && !f.Embedded() {
					opt.fields++
					if !s.set[f] {
						opt.unset++
					}
				}
			}
			if inScope {
				s.options = append(s.options, opt)
			}
		}
	}
	sort.Strings(out)
	sort.Slice(s.options, func(i, j int) bool { return s.options[i].name < s.options[j].name })
	return out
}

// enumOf returns the named type whose enum unit obj belongs to: the type
// a type name denotes or a constant has. It is nil for anything else.
func enumOf(obj types.Object) *types.TypeName {
	switch obj.(type) {
	case *types.TypeName, *types.Const:
		if n, ok := types.Unalias(obj.Type()).(*types.Named); ok {
			return n.Origin().Obj()
		}
	}
	return nil
}

// enumUnits returns, for each type scope declares or aliases, whether a
// member of its enum unit is used. Constants of a type declared and
// aliased elsewhere (time.Duration) are no unit.
func (s *apiScan) enumUnits(scope *types.Scope) map[*types.TypeName]bool {
	used := map[*types.TypeName]bool{}
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if e := enumOf(tn); e != nil {
				used[e] = used[e] || s.used[tn]
			}
		}
	}
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if _, ok := used[enumOf(obj)]; ok && s.used[obj] {
			used[enumOf(obj)] = true
		}
	}
	return used
}

// useThroughIfaces marks the methods of named (or *named) that implement
// a called interface method.
func (s *apiScan) useThroughIfaces(named *types.Named) {
	if named.TypeParams().Len() > 0 {
		return
	}
	for _, u := range s.ifaceUses {
		iface := u.iface.Underlying().(*types.Interface)
		var t types.Type = named
		if !types.Implements(t, iface) {
			if types.IsInterface(named) {
				continue
			}
			if t = types.NewPointer(named); !types.Implements(t, iface) {
				continue
			}
		}
		for name := range u.names {
			if m, _, _ := types.LookupFieldOrMethod(t, true, named.Obj().Pkg(), name); m != nil {
				s.used[m.(*types.Func).Origin()] = true
			}
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if m, _, _ := types.LookupFieldOrMethod(t, true, named.Obj().Pkg(), iface.Method(i).Name()); m != nil {
				s.implements[m.(*types.Func).Origin()] = true
			}
		}
	}
}

// unreadParams returns the parameters of the funcs and methods declared
// in the listed packages that no value reaches a computation through: a
// blank or unnamed one, one its body never uses, and one every use of
// which is a direct argument of a static call landing in a parameter that
// is itself unread (the greatest such set). A method named in an
// interface its type satisfies and a func whose value is taken keep
// their parameters: a caller the gate cannot see picks their signature.
func (s *apiScan) unreadParams() map[*types.Var]bool {
	listed := map[*types.Package]bool{}
	for _, pkg := range s.listed {
		listed[pkg] = true
	}
	unread := map[*types.Var]bool{}
	for p, u := range s.params {
		if listed[u.fn.Pkg()] && !u.read && !s.taken[u.fn] && !s.implements[u.fn] {
			unread[p] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for p := range unread {
			if !s.params[p].passedOnly(unread) {
				delete(unread, p)
				changed = true
			}
		}
	}
	return unread
}

// paramIDs returns the allowlist spelling of fn's unread parameters,
// id(name), or id(#n) for the blank or unnamed n-th one.
func paramIDs(id string, fn *types.Func, unread map[*types.Var]bool) []string {
	var out []string
	ps := fn.Type().(*types.Signature).Params()
	for i := 0; i < ps.Len(); i++ {
		if p := ps.At(i); unread[p] {
			name := p.Name()
			if name == "" || name == "_" {
				name = fmt.Sprintf("#%d", i+1)
			}
			out = append(out, id+"("+name+")")
		}
	}
	return out
}

func methods(named *types.Named) []*types.Func {
	if iface, ok := named.Underlying().(*types.Interface); ok {
		ms := make([]*types.Func, iface.NumExplicitMethods())
		for i := range ms {
			ms[i] = iface.ExplicitMethod(i)
		}
		return ms
	}
	ms := make([]*types.Func, named.NumMethods())
	for i := range ms {
		ms[i] = named.Method(i)
	}
	return ms
}

// readAPIAllowlist parses lines "pkg.[Recv.]Name  # reason", the name
// being the line's first word (a parameter's may hold a #). Blank lines
// and lines starting with # are skipped; a line without a reason is an
// error.
func readAPIAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id := strings.Fields(line)[0]
		reason, ok := strings.CutPrefix(strings.TrimSpace(line[len(id):]), "#")
		if reason = strings.TrimSpace(reason); !ok || reason == "" {
			return nil, fmt.Errorf("%s:%d: want \"pkg.[Recv.]Name  # reason\", got %q", path, n, line)
		}
		if _, dup := allow[id]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, id)
		}
		allow[id] = reason
	}
	return allow, sc.Err()
}

// diffAPIAllowlist returns, sorted, the unused identifiers the allowlist
// lacks and the allowlist lines naming no unused identifier.
func diffAPIAllowlist(unused []string, allow map[string]string) (missing, stale []string) {
	found := map[string]bool{}
	for _, id := range unused {
		found[id] = true
		if _, ok := allow[id]; !ok {
			missing = append(missing, id)
		}
	}
	for id := range allow {
		if !found[id] {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	return missing, stale
}
