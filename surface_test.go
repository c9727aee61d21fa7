package logbase_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	logbase "repro"
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
// regrow: Store has exactly the 16 golden methods; *DB and
// *ClusterClient embed the same client type and declare none of the 16
// themselves (every Store method is written once, on the client).
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
	dbClient, ok1 := dbT.FieldByName("client")
	ccClient, ok2 := ccT.FieldByName("client")
	if !ok1 || !ok2 || !dbClient.Anonymous || !ccClient.Anonymous || dbClient.Type != ccClient.Type {
		t.Fatalf("*DB and *ClusterClient must embed the same client type: DB has %v (%v), ClusterClient has %v (%v)",
			dbClient.Type, ok1, ccClient.Type, ok2)
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
	for _, typ := range []string{"DB", "ClusterClient"} {
		if len(declared[typ]) == 0 {
			t.Errorf("found no methods declared on %s: the source scan is broken", typ)
		}
		for _, m := range declared[typ] {
			if slices.Contains(storeMethods, m) {
				t.Errorf("%s declares Store method %s itself; it belongs on the client, once", typ, m)
			}
		}
	}
	for _, m := range storeMethods {
		if !slices.Contains(declared["client"], m) {
			t.Errorf("the client does not declare Store method %s", m)
		}
	}
}
