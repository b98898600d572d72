package aurora_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// rootScan checks the repository once for both root gates: every non-test
// Go file, cmd/, examples/ and bench/ included, with bench/ counted only as
// a caller.
var rootScan = sync.OnceValues(func() (*scan, error) {
	return scanModules(map[string]string{"aurora": ".", "aurora/bench": "bench"}, "aurora/bench")
})

// TestEveryFunctionHasAProductCaller fails on a function or method that no
// non-test code calls or refers to: code only tests drive belongs in _test.go
// files, or is deleted. A method also counts as used when its receiver type
// is used and implements an interface that has the method. The few
// exceptions are in productAllowlist, each with its reason; an entry that
// gains a product caller, or names nothing, fails too.
func TestEveryFunctionHasAProductCaller(t *testing.T) {
	s, err := rootScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allowlistProblems(s.funcs, productAllowlist, funcRule) {
		t.Error(p)
	}
}

// TestEveryDeclarationHasAProductUse fails on product state only tests
// need: a struct field no non-test code reads, and a package-level type,
// constant or variable no non-test code names. The exceptions are in
// declAllowlist, each with its reason; a stale entry fails too.
func TestEveryDeclarationHasAProductUse(t *testing.T) {
	s, err := rootScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allowlistProblems(s.decls, declAllowlist, declRule) {
		t.Error(p)
	}
}

// TestCallersCheckFindsPlantedFunction runs both checks over a fixture
// module: what nothing but a test uses is reported, what a call, a method
// value, an interface, a read, a map key or a JSON tag reaches is not, and
// an allowlist entry for something with a product use is stale.
func TestCallersCheckFindsPlantedFunction(t *testing.T) {
	s, err := scanModules(map[string]string{"fixture": "testdata/callers"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.Planted", "lib.Quiet.String", "lib.Shape.Unused"}
	if !slices.Equal(s.funcs, want) {
		t.Fatalf("unused functions = %v, want %v", s.funcs, want)
	}
	got := allowlistProblems(s.funcs, map[string]string{"lib.Shape.Unused": "kept", "lib.Used": "kept"}, funcRule)
	want = []string{
		"lib.Planted has no non-test caller: move it into a _test.go file, delete it, or give it a product caller",
		"lib.Quiet.String has no non-test caller: move it into a _test.go file, delete it, or give it a product caller",
		"allowlist entry lib.Used is stale: it now has a product caller, or names no function",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("function problems = %q, want %q", got, want)
	}

	want = []string{"lib.PlantedConst", "lib.Quiet", "lib.Tally.Positional", "lib.Tally.TestOnly", "lib.Tally.Written"}
	if !slices.Equal(s.decls, want) {
		t.Fatalf("unused declarations = %v, want %v", s.decls, want)
	}
	got = allowlistProblems(s.decls, map[string]string{"lib.Quiet": "kept", "lib.Tally.Read": "kept"}, declRule)
	want = []string{
		"lib.PlantedConst has no non-test use: delete it, move it into a _test.go file, or give it a product reader",
		"lib.Tally.Positional has no non-test use: delete it, move it into a _test.go file, or give it a product reader",
		"lib.Tally.TestOnly has no non-test use: delete it, move it into a _test.go file, or give it a product reader",
		"lib.Tally.Written has no non-test use: delete it, move it into a _test.go file, or give it a product reader",
		"allowlist entry lib.Tally.Read is stale: it now has a product use, or names no declaration",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("declaration problems = %q, want %q", got, want)
	}
}

// rule words a gate's two kinds of problem.
type rule struct{ unused, stale string }

var (
	funcRule = rule{"has no non-test caller: move it into a _test.go file, delete it, or give it a product caller", "is stale: it now has a product caller, or names no function"}
	declRule = rule{"has no non-test use: delete it, move it into a _test.go file, or give it a product reader", "is stale: it now has a product use, or names no declaration"}
)

// allowlistProblems reports each unused name the allowlist does not name,
// then each allowlist entry that is not unused, in name order.
func allowlistProblems(unused []string, allow map[string]string, r rule) []string {
	var out []string
	for _, name := range unused {
		if _, ok := allow[name]; !ok {
			out = append(out, name+" "+r.unused)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(allow)) {
		if !slices.Contains(unused, name) {
			out = append(out, "allowlist entry "+name+" "+r.stale)
		}
	}
	return out
}

// kernSyscall is the reason every simulated syscall in the allowlist carries.
const kernSyscall = "Table 4: simulated syscall; tests are its applications, and the checkpoint must capture what it creates"

// productAllowlist names the functions kept without a product caller, keyed
// as scanModules reports them, with the reason each stays.
var productAllowlist = map[string]string{
	"internal/sls.Group.MCtl":                  "Table 3: sls_mctl, the per-region checkpoint exclusion",
	"internal/sls.Group.Detach":                "Table 2: detach, the inverse of attach",
	"internal/sls.Orchestrator.PageDaemonPass": "§6: the page daemon's eviction pass under memory pressure",
	"internal/vm.CollapseLegacy":               "ROADMAP item 8: the ablation baseline Aurora's collapse is measured against",
	"internal/flight.Recorder.Seq":             "test accessor: the ring's sequence number, which faultdev's, objstore's, kern's and sls's tests compare with what recovery returns",
	"internal/mem.PhysMem.Used":                "test accessor: the frame-leak checks of the vm, sls and machine tests",
	"internal/net.Conn.SessionProgress":        "test accessor: the receiver's session state, read by the net and sls resume tests",
	"internal/net.Link.Xmits":                  "test accessor: the transmission index space the net and sls fault sweeps enumerate",
	"internal/objstore.Journal.Used":           "test accessor: journal fill, read by the objstore and sls journal tests",
	"internal/objstore.Store.DeadBlocks":       "test accessor: the deadlist length, read by the retention tests of objstore, sls and experiments",
	"internal/objstore.Store.FreeRuns":         "test accessor: free-map fragmentation, read by objstore's steady-state and experiments' footprint tests",
	"internal/objstore.Store.WALReplayed":      "test accessor: the frames the last recovery replayed, read by the objstore and sls WAL tests",
	"internal/objstore.Store.WALSeq":           "test accessor: the WAL frame sequence, read by the crash tests of faultdev, objstore and sls",
	"internal/objstore.image.Objects":          "test accessor: the object table's OIDs, read by the crash, delta and restore tests of six packages",
	"internal/trace.Tracer.TimelineTail":       "test accessor: the event tail faultdev's crash harness appends to a failed replay",
	"internal/kern.Gate.Stopped":               "test accessor: sls tests check that a failed checkpoint leaves the machine running",
	"internal/kern.Proc.AcceptQueueLen":        "test accessor: sls tests check what a restore keeps of an accept queue",
	"internal/kern.Proc.AioSubmit":             kernSyscall,
	"internal/kern.Proc.AioWait":               kernSyscall,
	"internal/kern.Proc.Close":                 kernSyscall,
	"internal/kern.Proc.Dup":                   kernSyscall,
	"internal/kern.Proc.Fsync":                 kernSyscall,
	"internal/kern.Proc.KeventTrigger":         kernSyscall,
	"internal/kern.Proc.KeventWait":            kernSyscall,
	"internal/kern.Proc.Kill":                  kernSyscall,
	"internal/kern.Proc.MapDevice":             kernSyscall,
	"internal/kern.Proc.MmapFile":              kernSyscall,
	"internal/kern.Proc.MmapShm":               kernSyscall,
	"internal/kern.Proc.Munmap":                kernSyscall,
	"internal/kern.Proc.OpenDevice":            kernSyscall,
	"internal/kern.Proc.PollSignal":            kernSyscall,
	"internal/kern.Proc.RecvFDs":               kernSyscall,
	"internal/kern.Proc.SendFDs":               kernSyscall,
	"internal/kern.Proc.SendTo":                kernSyscall,
	"internal/kern.Proc.SetFlags":              kernSyscall,
	"internal/kern.Proc.SetSockOpt":            kernSyscall,
	"internal/kern.Proc.SetTermios":            kernSyscall,
	"internal/kern.Proc.Setpgid":               kernSyscall,
	"internal/kern.Proc.Setsid":                kernSyscall,
	"internal/kern.Proc.ShmAt":                 kernSyscall,
	"internal/kern.Proc.ShmRm":                 kernSyscall,
	"internal/kern.Proc.UmtxWait":              kernSyscall,
	"internal/kern.Proc.UmtxWake":              kernSyscall,
	"internal/kern.Proc.Unlink":                kernSyscall,
	"internal/kern.Proc.Wait":                  kernSyscall,
}

// declAllowlist names the fields, types, constants and variables kept
// without a product use, keyed as scanModules reports them, with the reason
// each stays.
var declAllowlist = map[string]string{
	"internal/criu.Stats.Objects": "serialized by encoding/json: slsbench -results writes Table1Result, which holds criu.Stats, through its renderer interface",
	"internal/criu.Stats.Pages":   "serialized by encoding/json: slsbench -results writes Table1Result, which holds criu.Stats, through its renderer interface",
	"internal/objstore.Entry.Seq": "test accessor: a journal frame's sequence number, which the on-disk format pin hashes and the sls mirror and crash tests compare",
	"internal/kern.FilterTimer":   "Table 4: the kevent filter the on-disk format pin registers, which the checkpoint must capture",
	"internal/kern.SIGTERM":       "Table 4: a signal the kern and sls tests deliver to a process group",
	"internal/kern.SIGUSR1":       "Table 4: a signal the kern and sls tests deliver to a process",
}

// scan is what scanModules finds, each list sorted.
type scan struct {
	funcs []string // functions and methods nothing outside a test refers to
	decls []string // fields nothing outside a test reads; package-level types, constants and variables nothing outside a test names
}

// scanModules loads every non-test package under the given modules (module
// path → directory) and reports what is declared outside the callers-only
// modules and used by nothing outside a test. Names are the package path
// relative to its module, then the receiver or enclosing type if any, then
// the name: "internal/sls.Group.MCtl", "internal/net.ConnStats.FramesSent".
//
// A field is used when non-test code reads it. Writes are not reads: an
// assignment, ++/--, an op-assign or x.f = append(x.f, …) to the field (or
// through it, into a value it holds), and a composite-literal key. A field
// is read all the same when its struct is a map key or compared with ==,
// and when encoding/json serializes it: through a json tag, or exported
// inside a value the program passes to json.Marshal, MarshalIndent or
// Encoder.Encode. An embedded field is read when a selection goes through
// it or its type has methods to promote. A type named only in its own
// declaration and methods is unused.
func scanModules(modules map[string]string, callersOnly ...string) (*scan, error) {
	l, err := loadModules(modules)
	if err != nil {
		return nil, err
	}

	// Every interface any loaded package can see, for the Implements rule.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}

	used := map[types.Object]bool{}    // functions, types, constants and variables named outside themselves
	read := map[*types.Var]bool{}      // fields read
	funcs := map[*types.Func]string{}  // each checked function's reported name
	decls := map[types.Object]string{} // each checked declaration's reported name
	fields := map[*types.Var]string{}  // each checked field's reported name
	keys := map[types.Type]bool{}      // types markRead has walked as map keys and == operands
	encoded := map[types.Type]bool{}   // types markRead has walked as encoding/json would
	for _, lp := range l.pkgs {
		if lp == nil {
			continue
		}
		walk(lp.pkg)
		checked := !slices.Contains(callersOnly, lp.mod)
		for _, tv := range lp.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
			if m, ok := tv.Type.(*types.Map); ok {
				markRead(m.Key(), read, keys, false)
			}
		}
		for _, sel := range lp.info.Selections {
			t := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				f := fieldOf(t, i)
				read[f.Origin()] = true
				t = f.Type()
			}
		}
		for _, f := range lp.files {
			writes := fieldWrites(f, lp.info)
			for _, d := range f.Decls {
				// A unit is a function, or one spec of a declaration: its
				// uses of what it declares (for a method, also of its
				// receiver type) do not count.
				type unit struct {
					node ast.Node
					self []types.Object
				}
				var units []unit
				prefix := pkgName(lp.pkg, lp.mod) + "."
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := lp.info.Defs[d.Name].(*types.Func)
					u := unit{d, []types.Object{fn}}
					if recv := receiverType(fn); recv != nil {
						u.self = append(u.self, recv.Obj())
					}
					if checked && d.Name.Name != "init" && !(d.Name.Name == "main" && d.Recv == nil) {
						funcs[fn] = funcName(fn, lp.mod)
					}
					prefix = funcName(fn, lp.mod) + "."
					units = append(units, u)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						u := unit{node: spec}
						var names []*ast.Ident
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{spec.Name}
						case *ast.ValueSpec:
							names = spec.Names
						}
						for _, id := range names {
							if obj := lp.info.Defs[id]; obj != nil {
								u.self = append(u.self, obj)
								if checked {
									decls[obj] = prefix + id.Name
								}
							}
						}
						units = append(units, u)
					}
				}
				if checked {
					fieldsOf(d, prefix, lp.info, fields, read)
				}
				for _, u := range units {
					ast.Inspect(u.node, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.Ident:
							switch obj := lp.info.Uses[n].(type) {
							case *types.Var:
								if obj.IsField() && !writes[n] {
									read[obj.Origin()] = true
								} else if !obj.IsField() && !slices.Contains(u.self, types.Object(obj)) {
									used[obj.Origin()] = true
								}
							case *types.Func:
								if !slices.Contains(u.self, types.Object(obj.Origin())) {
									used[obj.Origin()] = true
								}
							case *types.TypeName, *types.Const:
								if !slices.Contains(u.self, obj) {
									used[obj] = true
								}
							}
						case *ast.BinaryExpr:
							if n.Op == token.EQL || n.Op == token.NEQ {
								markRead(lp.info.TypeOf(n.X), read, keys, false)
							}
						case *ast.CallExpr:
							if jsonSink(n, lp.info) {
								for _, arg := range n.Args {
									markRead(lp.info.TypeOf(arg), read, encoded, true)
								}
							}
						}
						return true
					})
				}
			}
		}
	}

	s := &scan{}
	for fn, name := range funcs {
		if !used[fn] && !(receiverUsed(fn, used) && implementsAny(fn, ifaces)) {
			s.funcs = append(s.funcs, name)
		}
	}
	for obj, name := range decls {
		if !used[obj] && obj.Name() != "_" {
			s.decls = append(s.decls, name)
		}
	}
	for f, name := range fields {
		if !read[f] {
			s.decls = append(s.decls, name)
		}
	}
	slices.Sort(s.funcs)
	slices.Sort(s.decls)
	return s, nil
}

// fieldsOf records every field declared in n under its reported name:
// prefix, then the types and fields that enclose it. A field tagged for
// encoding/json, and an embedded field whose type has methods to promote,
// count as read.
func fieldsOf(n ast.Node, prefix string, info *types.Info, out map[*types.Var]string, read map[*types.Var]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.TypeSpec:
			fieldsOf(x.Type, prefix+x.Name.Name+".", info, out, read)
			return false
		case *ast.ValueSpec:
			for _, e := range append([]ast.Expr{x.Type}, x.Values...) {
				if e != nil {
					fieldsOf(e, prefix+x.Names[0].Name+".", info, out, read)
				}
			}
			return false
		case *ast.StructType:
			st := info.TypeOf(x).(*types.Struct)
			i := 0
			for _, f := range x.Fields.List {
				for range max(1, len(f.Names)) {
					v := st.Field(i)
					out[v] = prefix + v.Name()
					tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json")
					if ok && tag != "-" || v.Embedded() && hasMethods(v.Type()) {
						read[v] = true
					}
					i++
				}
				fieldsOf(f.Type, prefix+st.Field(i-1).Name()+".", info, out, read)
			}
			return false
		}
		return true
	})
}

// hasMethods reports whether t or *t has a method.
func hasMethods(t types.Type) bool {
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	return types.NewMethodSet(t).Len() > 0
}

// fieldOf returns field i of t's struct, through a pointer if t is one.
func fieldOf(t types.Type, i int) *types.Var {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying().(*types.Struct).Field(i)
}

// fieldWrites returns the field identifiers in f that write their field
// and do not read it: the targets of assignments, ++/-- and op-assigns,
// together with each field they write through by value (x.a.b = v writes a,
// x.m[k] = v writes m; x.p.b = v reads the pointer p); the x.f in
// x.f = append(x.f, …); and the keys of struct literals.
func fieldWrites(f *ast.File, info *types.Info) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		for first := true; ; first = false {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				v, ok := info.Uses[x.Sel].(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				if _, ptr := v.Type().Underlying().(*types.Pointer); ptr && !first {
					return
				}
				writes[x.Sel] = true
				e = x.X
				continue
			}
			return
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				target(lhs)
				if len(n.Lhs) != len(n.Rhs) {
					continue
				}
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 {
					id, ok := ast.Unparen(call.Fun).(*ast.Ident)
					if ok && info.Uses[id] == types.Universe.Lookup("append") && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
						target(call.Args[0])
					}
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.CompositeLit:
			if _, ok := info.TypeOf(n).Underlying().(*types.Struct); ok {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						writes[kv.Key.(*ast.Ident)] = true
					}
				}
			}
		}
		return true
	})
	return writes
}

// markRead counts as read every field of each struct t holds by value, as
// a map key or an operand of == does; with viaJSON, every exported field
// encoding/json would serialize, through pointers, slices and maps too.
// walked holds the types already walked the same way.
func markRead(t types.Type, read map[*types.Var]bool, walked map[types.Type]bool, viaJSON bool) {
	if t == nil || walked[t] {
		return
	}
	walked[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			f := u.Field(i)
			if viaJSON {
				tag, _ := reflect.StructTag(u.Tag(i)).Lookup("json")
				if !f.Exported() && !f.Embedded() || tag == "-" {
					continue
				}
			}
			read[f.Origin()] = true
			markRead(f.Type(), read, walked, viaJSON)
		}
	case *types.Array:
		markRead(u.Elem(), read, walked, viaJSON)
	case *types.Pointer:
		if viaJSON {
			markRead(u.Elem(), read, walked, viaJSON)
		}
	case *types.Slice:
		if viaJSON {
			markRead(u.Elem(), read, walked, viaJSON)
		}
	case *types.Map:
		if viaJSON {
			markRead(u.Key(), read, walked, viaJSON)
			markRead(u.Elem(), read, walked, viaJSON)
		}
	}
}

// jsonSink reports whether call is encoding/json's Marshal, MarshalIndent
// or Encoder.Encode.
func jsonSink(call *ast.CallExpr, info *types.Info) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" &&
		(fn.Name() == "Marshal" || fn.Name() == "MarshalIndent" || fn.Name() == "Encode")
}

// receiverType returns fn's receiver type, or nil for a function.
func receiverType(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// receiverUsed reports whether fn is a method whose receiver type is used.
func receiverUsed(fn *types.Func, used map[types.Object]bool) bool {
	recv := receiverType(fn)
	return recv != nil && used[recv.Obj()]
}

// pkgName is how scanModules names p: its path relative to mod, or mod
// itself for the module's root package.
func pkgName(p *types.Package, mod string) string {
	if name := strings.TrimPrefix(strings.TrimPrefix(p.Path(), mod), "/"); name != "" {
		return name
	}
	return mod
}

// funcName is how scanModules reports fn: its package, its receiver type if
// it has one, then its name.
func funcName(fn *types.Func, mod string) string {
	name := fn.Name()
	if recv := receiverType(fn); recv != nil {
		name = recv.Obj().Name() + "." + name
	}
	return pkgName(fn.Pkg(), mod) + "." + name
}

// implementsAny reports whether fn is a method whose receiver type, as a
// value or a pointer, implements an interface that has a method of fn's name.
func implementsAny(fn *types.Func, ifaces []*types.Interface) bool {
	named := receiverType(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == fn.Name() && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// loadModules type-checks every non-test package under the modules.
func loadModules(modules map[string]string) (*loader, error) {
	l := &loader{
		fset:    token.NewFileSet(),
		modules: modules,
		std:     importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*loaded{},
	}
	modDirs := map[string]bool{}
	for _, dir := range modules {
		modDirs[filepath.Clean(dir)] = true
	}
	var paths []string
	for mod, dir := range modules {
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			// testdata, hidden directories and nested modules, which walk
			// themselves, are not this module's packages.
			if name := d.Name(); p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || modDirs[p]) {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(dir, p)
			paths = append(paths, filepath.ToSlash(filepath.Join(mod, rel)))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	slices.Sort(paths)
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// loader type-checks the modules' packages from source, and the standard
// library through the source importer.
type loader struct {
	fset    *token.FileSet
	modules map[string]string
	std     types.ImporterFrom
	pkgs    map[string]*loaded // nil while loading, and for a directory without Go files
}

type loaded struct {
	mod   string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// dirOf maps an import path to its module and directory, if a module holds it.
func (l *loader) dirOf(path string) (mod, dir string, ok bool) {
	for m, d := range l.modules {
		if (path == m || strings.HasPrefix(path, m+"/")) && len(m) > len(mod) {
			mod, dir, ok = m, filepath.Join(d, strings.TrimPrefix(path, m)), true
		}
	}
	return mod, dir, ok
}

func (l *loader) load(path string) (*loaded, error) {
	if lp, ok := l.pkgs[path]; ok {
		if lp == nil {
			return nil, fmt.Errorf("import cycle or no Go files at %s", path)
		}
		return lp, nil
	}
	l.pkgs[path] = nil
	mod, dir, _ := l.dirOf(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	lp := &loaded{mod: mod, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	conf := types.Config{Importer: l}
	lp.pkg, err = conf.Check(path, l.fset, lp.files, lp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = lp
	return lp, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

// ImportFrom implements types.ImporterFrom.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, _, ok := l.dirOf(path); !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	lp, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if lp == nil {
		return nil, fmt.Errorf("no Go files for %s", path)
	}
	return lp.pkg, nil
}
