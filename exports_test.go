package crosssched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowList names exported identifiers that stay without a non-test
// caller: the test hooks that pin correctness, statistics kept for work
// that will use them, and methods that satisfy an interface and are called
// through it (sort.Interface, heap.Interface, fmt.Stringer, error, ...).
var exportAllowList = map[string]bool{
	// Test hooks. The Planner is the hot-path availability profile that
	// internal/check compares against its naive model; ReadCSV is the
	// decoder the CSV writers' round trips and FuzzCSVReader read back
	// through, and the reference NewCSVStream is compared against; Collect
	// drains a stream for the tests that compare it with a whole trace.
	"sim.Planner":               true,
	"sim.AvailSet.NewPlanner":   true,
	"sim.Planner.FreeAt":        true,
	"sim.Planner.EarliestStart": true,
	"sim.Planner.Reserve":       true,
	"sim.AvailSet.Shadow":       true,
	"sim.ReferenceSnapshot":     true,
	"sim.SetConsPlanAudit":      true,
	"sim.NewRunner":             true,
	"synth.VerifyProfiles":      true,
	"synth.VerifyConsProfiles":  true,
	"obs.Sub.Buffered":          true,
	"obs.ReadJSONL":             true,
	"obs.Synced":                true,
	"trace.NewCSVStream":        true,
	"trace.ReadCSV":             true,
	"trace.Collect":             true,
	"check.Combos":              true,
	// Statistics kept for the per-seed claims table (bootstrap intervals)
	// and the calibration round trip (KolmogorovSmirnov).
	"stats.BootstrapCI":       true,
	"stats.MeanCI":            true,
	"stats.MedianCI":          true,
	"stats.CI.Width":          true,
	"stats.KolmogorovSmirnov": true,
	// Interface methods.
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true, "Unwrap": true,
	"ServeHTTP": true, "Write": true, "Read": true, "Close": true, "Flush": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// exportDecl is one exported top-level name and the declaration that
// introduces it.
type exportDecl struct {
	key  string // "pkg.Name" or "pkg.Recv.Name"
	name string // the bare identifier callers write
	decl ast.Node
}

// TestEveryExportHasACaller fails when an exported function, method, type,
// variable or constant in cmd/, examples/, internal/ or perfbench/ is
// referred to by no other non-test declaration. Matching is by bare
// identifier, so two unrelated names that collide count as callers of
// each other: the check errs toward passing, never toward a false alarm.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var exports []exportDecl
	uses := map[string]map[ast.Node]bool{} // identifier -> declarations naming it
	for _, root := range []string{"cmd", "examples", "internal", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := f.Name.Name
			for _, decl := range topLevelDecls(f) {
				exports = append(exports, declaredExports(pkg, decl)...)
				defined := map[*ast.Ident]bool{}
				for _, id := range declaredIdents(decl) {
					defined[id] = true
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && !defined[id] {
						if uses[id.Name] == nil {
							uses[id.Name] = map[ast.Node]bool{}
						}
						uses[id.Name][decl] = true
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(exports) == 0 {
		t.Fatal("found no exported declarations: run from the repository root")
	}
	var dead []string
	for _, e := range exports {
		if exportAllowList[e.key] || exportAllowList[e.name] {
			continue
		}
		called := false
		for d := range uses[e.name] {
			if d != e.decl {
				called = true
				break
			}
		}
		if !called {
			dead = append(dead, e.key+" ("+fset.Position(e.decl.Pos()).String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported with no non-test caller: %s", d)
	}
}

// topLevelDecls splits a file into the units a reference is counted
// against: each function or method, and each spec of a const, var or type
// block, so that names sharing a block do not count as each other's
// callers.
func topLevelDecls(f *ast.File) []ast.Node {
	var out []ast.Node
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out = append(out, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				out = append(out, s)
			}
		}
	}
	return out
}

// declaredIdents returns the identifiers a declaration defines, which are
// not references to themselves.
func declaredIdents(decl ast.Node) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{d.Name}
	case *ast.ValueSpec:
		return d.Names
	}
	return nil
}

// declaredExports returns the exported names a declaration introduces.
func declaredExports(pkg string, decl ast.Node) []exportDecl {
	var out []exportDecl
	for _, id := range declaredIdents(decl) {
		if !id.IsExported() {
			continue
		}
		key := pkg + "." + id.Name
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
			recv := receiverName(fd.Recv.List[0].Type)
			if !ast.IsExported(recv) {
				// A method of an unexported type is reachable only
				// through an interface or from inside its package.
				continue
			}
			key = pkg + "." + recv + "." + id.Name
		}
		out = append(out, exportDecl{key: key, name: id.Name, decl: decl})
	}
	return out
}

// receiverName returns the type name of a method receiver expression.
func receiverName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return receiverName(x.X)
	case *ast.IndexExpr:
		return receiverName(x.X)
	case *ast.IndexListExpr:
		return receiverName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
