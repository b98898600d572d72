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
	"slices"
	"strings"
	"testing"
)

// TestEveryFunctionHasAProductCaller type-checks every non-test Go file of
// the repository (cmd/, examples/ and bench/ included) and fails on a
// function or method that no non-test code calls or refers to: code only
// tests drive belongs in _test.go files, or is deleted. A method also counts
// as used when its receiver implements an interface that has the method.
// The few exceptions are in productAllowlist, each with its reason; an entry
// that gains a product caller, or names nothing, fails too.
func TestEveryFunctionHasAProductCaller(t *testing.T) {
	unused, err := unusedFuncs(map[string]string{"aurora": ".", "aurora/bench": "bench"}, "aurora/bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allowlistProblems(unused, productAllowlist) {
		t.Error(p)
	}
}

// TestCallersCheckFindsPlantedFunction runs the same check over a fixture
// module: the functions nothing but a test calls are reported, the ones a
// call, a method value or an interface reaches are not, and an allowlist
// entry for a function with a caller is stale.
func TestCallersCheckFindsPlantedFunction(t *testing.T) {
	unused, err := unusedFuncs(map[string]string{"fixture": "testdata/callers"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.Planted", "lib.Shape.Unused"}
	if !slices.Equal(unused, want) {
		t.Fatalf("unused = %v, want %v", unused, want)
	}
	got := allowlistProblems(unused, map[string]string{"lib.Shape.Unused": "kept", "lib.Used": "kept"})
	want = []string{
		"lib.Planted has no non-test caller: move it into a _test.go file, delete it, or give it a product caller",
		"allowlist entry lib.Used is stale: it now has a product caller, or names no function",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("problems = %q, want %q", got, want)
	}
}

// allowlistProblems reports each unused function the allowlist does not
// name, then each allowlist entry that is not unused, in name order.
func allowlistProblems(unused []string, allow map[string]string) []string {
	var out []string
	for _, name := range unused {
		if _, ok := allow[name]; !ok {
			out = append(out, name+" has no non-test caller: move it into a _test.go file, delete it, or give it a product caller")
		}
	}
	for _, name := range slices.Sorted(maps.Keys(allow)) {
		if !slices.Contains(unused, name) {
			out = append(out, "allowlist entry "+name+" is stale: it now has a product caller, or names no function")
		}
	}
	return out
}

// kernSyscall is the reason every simulated syscall in the allowlist carries.
const kernSyscall = "Table 4: simulated syscall; tests are its applications, and the checkpoint must capture what it creates"

// productAllowlist names the functions kept without a product caller, keyed
// as unusedFuncs reports them, with the reason each stays.
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

// unusedFuncs loads every non-test package under the given modules (module
// path → directory) and returns, sorted, each function or method declared
// outside the callers-only modules that nothing outside a test refers to.
// Names are the package path relative to its module, then the receiver
// type if any, then the function: "internal/sls.Group.MCtl".
func unusedFuncs(modules map[string]string, callersOnly ...string) ([]string, error) {
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
	used := map[*types.Func]bool{}
	declared := map[*types.Func]string{} // each checked function's reported name
	for _, lp := range l.pkgs {
		if lp == nil {
			continue
		}
		walk(lp.pkg)
		for _, tv := range lp.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range lp.files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = lp.info.Defs[fd.Name].(*types.Func)
					if !slices.Contains(callersOnly, lp.mod) && fd.Name.Name != "init" && !(fd.Name.Name == "main" && fd.Recv == nil) {
						declared[self] = funcName(self, lp.mod)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := lp.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	var out []string
	for fn, name := range declared {
		if !used[fn] && !implementsAny(fn, ifaces) {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out, nil
}

// funcName is how unusedFuncs reports fn: its package path relative to mod
// (mod itself for the module's root package), its receiver type if it has
// one, then its name.
func funcName(fn *types.Func, mod string) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name = t.(*types.Named).Obj().Name() + "." + name
	}
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), mod), "/")
	if pkg == "" {
		pkg = mod
	}
	return pkg + "." + name
}

// implementsAny reports whether fn is a method whose receiver type, as a
// value or a pointer, implements an interface that has a method of fn's name.
func implementsAny(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
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
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
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
