package logbase_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	logbase "repro"
	"repro/internal/core"
	"repro/internal/textproto"
)

// textproto.Row is logbase.Row — an alias, not a mirror struct — so
// rows cross the wire boundary without a conversion. Compiles only
// while the two are identical types.
var _ = []logbase.Row([]textproto.Row(nil))

// storeMethods is the whole client contract: one way per thing. A new
// entry needs a reason, not just a line here.
var storeMethods = []string{
	"Batch", "Begin", "Close", "CreateMView", "CreateTable", "Delete",
	"Exec", "FullScan", "Get", "MViewQuery", "MViewStats", "Put",
	"Read", "Scan", "SetRetention", "Watch",
}

// TestStoreSurface pins the public surface so it cannot silently
// regrow: Store has exactly the 16 golden methods; *ClusterClient
// declares all of them (every Store method is written once), and *DB
// embeds it and declares only Watch, the one method a deployment with
// one log does differently (LSN-resumable).
func TestStoreSurface(t *testing.T) {
	storeT := reflect.TypeOf((*logbase.Store)(nil)).Elem()
	var got []string
	for i := 0; i < storeT.NumMethod(); i++ {
		got = append(got, storeT.Method(i).Name)
	}
	slices.Sort(got)
	if !slices.Equal(got, storeMethods) {
		t.Errorf("Store methods = %v\nwant the %d golden ones %v", got, len(storeMethods), storeMethods)
	}

	dbT := reflect.TypeOf((*logbase.DB)(nil)).Elem()
	ccT := reflect.TypeOf((*logbase.ClusterClient)(nil)).Elem()
	dbClient, ok := dbT.FieldByName("ClusterClient")
	if !ok || !dbClient.Anonymous || dbClient.Type != reflect.PointerTo(ccT) {
		t.Fatalf("*DB must embed *ClusterClient: has %v (%v)", dbClient.Type, ok)
	}
	for _, typ := range []reflect.Type{reflect.PointerTo(dbT), reflect.PointerTo(ccT)} {
		if !typ.Implements(storeT) {
			t.Errorf("%v does not implement Store", typ)
		}
	}

	// Declared (not promoted) methods, from the package's own source.
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{} // receiver type -> method names
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				declared[id.Name] = append(declared[id.Name], fn.Name.Name)
			}
		}
	}
	if len(declared["DB"]) == 0 {
		t.Error("found no methods declared on DB: the source scan is broken")
	}
	for _, m := range declared["DB"] {
		if slices.Contains(storeMethods, m) && m != "Watch" {
			t.Errorf("DB declares Store method %s itself; it belongs on the client, once", m)
		}
	}
	for _, m := range storeMethods {
		if !slices.Contains(declared["ClusterClient"], m) {
			t.Errorf("the client does not declare Store method %s", m)
		}
	}
}

// configFields pins every settable knob of the three configs, like
// storeMethods pins the client contract: a new option needs a test edit
// and a reason — two callers that need different values — not just a
// field. Values only ever set one way are constants.
var configFields = map[reflect.Type][]string{
	reflect.TypeOf(logbase.Options{}): {
		"AutoCompactInterval", "DataNodes", "DisableMetrics", "Faults",
		"GroupCommit", "Metrics", "ReadCacheBytes", "Replication",
		"SegmentSize", "SlowOpLog", "SlowOpThreshold",
	},
	reflect.TypeOf(core.Config{}): {
		"AutoCompactInterval", "DisableMetrics", "Faults", "GroupCommit",
		"Metrics", "NoClusteredScan", "ReadCacheBytes", "SegmentSize",
	},
	reflect.TypeOf(logbase.ClusterConfig{}): {
		"DFS", "Metrics", "NumServers", "Replicas", "Server",
		"SlowOpLog", "SlowOpThreshold", "Tables",
	},
}

// TestConfigSurface fails when a config gains or loses a field.
func TestConfigSurface(t *testing.T) {
	for typ, want := range configFields {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%v fields = %v\nwant the %d pinned ones %v", typ, got, len(want), want)
		}
	}
}

// seamsFile lists the exports under internal/ that only another
// package's tests drive, one per line: the name as TestNoDeadExports
// prints it, then the reason it stays.
const seamsFile = "testdata/test-seams.txt"

// TestNoDeadExports keeps unused surface from growing back: every
// exported name under internal/ must be used by a non-test file of this
// module or of benchmark/ (a module of its own, read here, not built).
// Three kinds of name are exempt: a method that satisfies a named
// interface declared in either module or in a std package they import;
// a method of a type the root package aliases, which is public API;
// and an entry of seamsFile. A seam entry that is used, exempt or gone
// fails too, so the file cannot go stale.
func TestNoDeadExports(t *testing.T) {
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var pkgs []listed
	seen := map[string]bool{}
	for _, dir := range []string{".", "benchmark"} {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		// -deps lists each package after its dependencies, so a
		// package is checked only once everything it imports has been.
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				t.Fatalf("go list in %s: %v", dir, err)
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	// Std packages come from their export data, the two modules from
	// source through one importer, so every package sees the same
	// objects and types.Implements can compare across them.
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	// Uses also records the selected object of every x.Sel.
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	var all []*types.Package
	for _, p := range pkgs {
		if p.Standard {
			if p.Export == "" {
				continue // unsafe
			}
			pkg, err := gc.Import(p.ImportPath)
			if err != nil {
				t.Fatalf("import %s: %v", p.ImportPath, err)
			}
			all = append(all, pkg)
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		all = append(all, pkg)
	}

	// Names print as "internal/pkg.Name" or "internal/pkg.Type.Method".
	module := checked["repro"]
	if module == nil {
		t.Fatal("go list did not list the root package")
	}
	key := func(obj types.Object) string {
		name := obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Origin().Signature().Recv(); recv != nil {
				typ := recv.Type()
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				if n, ok := types.Unalias(typ).(*types.Named); ok {
					name = n.Obj().Name() + "." + name
				}
			}
		}
		return strings.TrimPrefix(obj.Pkg().Path(), module.Path()+"/") + "." + name
	}
	used := map[string]bool{}
	for _, obj := range info.Uses {
		if obj.Pkg() != nil {
			used[key(obj)] = true
		}
	}

	// Every named interface with methods, by method name.
	ifaces := map[string][]*types.Interface{}
	scopes := []*types.Scope{types.Universe}
	for _, pkg := range all {
		scopes = append(scopes, pkg.Scope())
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok && it.IsMethodSet() {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			}
		}
	}
	satisfies := func(n *types.Named, method string) bool {
		if n.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces[method] {
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				return true
			}
		}
		return false
	}
	public := map[*types.TypeName]bool{}
	for _, name := range module.Scope().Names() {
		if tn, ok := module.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[n.Obj()] = true
			}
		}
	}

	dead := map[string]token.Position{}
	exempt := map[string]bool{}
	for _, pkg := range all {
		if !strings.HasPrefix(pkg.Path(), module.Path()+"/internal/") || pkg.Name() == "main" {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[key(obj)] {
				dead[key(obj)] = fset.Position(obj.Pos())
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				switch {
				case !m.Exported() || used[key(m)]:
				case public[tn] || satisfies(n, m.Name()):
					exempt[key(m)] = true
				default:
					dead[key(m)] = fset.Position(m.Pos())
				}
			}
		}
	}

	seams, err := os.ReadFile(seamsFile)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(seams)), "\n") {
		name, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("%s:%d: %q gives no reason", seamsFile, i+1, name)
		case used[name] || exempt[name]:
			t.Errorf("%s:%d: %s is stale: a non-test file uses it, or it is exempt", seamsFile, i+1, name)
		case dead[name] == token.Position{}:
			t.Errorf("%s:%d: %s is stale: no such export", seamsFile, i+1, name)
		}
		delete(dead, name)
	}
	var names []string
	for name := range dead {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Errorf("%s: %s is exported but no non-test file uses it; delete it, unexport it, or list it in %s with a reason", dead[name], name, seamsFile)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
