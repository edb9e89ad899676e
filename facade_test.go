package pocketcloudlets_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeCallers are the trees whose programs the facade serves: a
// facade name none of them uses, and nothing else in the facade needs,
// is surface kept for nobody.
var facadeCallers = []string{"examples", "cmd", "bench"}

// facadeMethodsOf are the facade types whose methods are facade surface.
var facadeMethodsOf = map[string]bool{"Simulation": true, "RadioTech": true}

// TestFacadeNamesHaveCallers holds the facade to its callers: every
// exported name it declares, and every exported method of Simulation and
// RadioTech, is either written by a non-test file under examples/, cmd/
// or bench/ — as pocketcloudlets.X for a name, as a selector .M for a
// method — or used by another declaration of the facade (an alias a
// kept signature needs). It reads syntax only, so a method counts as
// called wherever a caller selects its name on a value, whatever the
// value's type.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "pocketcloudlets.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names, methods := facadeDecls(facade)
	if len(names) == 0 || len(methods) == 0 {
		t.Fatalf("found %d facade names and %d methods: the declaration scan is broken", len(names), len(methods))
	}
	usedNames, usedMethods := facadeInternalUses(facade)

	var files int
	for _, dir := range facadeCallers {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			callerUses(f, usedNames, usedMethods)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("no caller files found: run from the module root")
	}

	var unused []string
	for n := range names {
		if !usedNames[n] {
			unused = append(unused, n)
		}
	}
	for m, recv := range methods {
		if !usedMethods[m] {
			unused = append(unused, recv+"."+m)
		}
	}
	sort.Strings(unused)
	for _, n := range unused {
		t.Errorf("facade name %s has no caller under %s and no use elsewhere in the facade",
			n, strings.Join(facadeCallers, "/, ")+"/")
	}
}

// facadeDecls returns the facade's exported top-level names and its
// exported Simulation/RadioTech methods (method name → receiver type).
func facadeDecls(f *ast.File) (names map[string]bool, methods map[string]string) {
	names, methods = map[string]bool{}, map[string]string{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				names[d.Name.Name] = true
			} else if recv := receiverType(d.Recv.List[0].Type); facadeMethodsOf[recv] {
				methods[d.Name.Name] = recv
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names, methods
}

func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// facadeInternalUses collects what the facade itself uses: unqualified
// identifiers other than declarations, field names and composite-literal
// keys (an alias named like its target, Engine = engine.Engine, is not a
// use of itself), and the methods one facade method calls on its own
// receiver.
func facadeInternalUses(f *ast.File) (names, methods map[string]bool) {
	names, methods = map[string]bool{}, map[string]bool{}
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			skip[x.Name] = true
			if x.Recv != nil && len(x.Recv.List[0].Names) == 1 && x.Body != nil {
				recv := x.Recv.List[0].Names[0].Name
				ast.Inspect(x.Body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
							methods[sel.Sel.Name] = true
						}
					}
					return true
				})
			}
		case *ast.TypeSpec:
			skip[x.Name] = true
		case *ast.ValueSpec:
			for _, id := range x.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range x.Names {
				skip[id] = true
			}
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[x.Sel] = true
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !skip[id] {
			names[id.Name] = true
		}
		return true
	})
	return names, methods
}

// callerUses adds what one caller file uses of the facade: names it
// writes qualified by the facade's import, and every selector it writes
// on a value rather than a package (a method call, as far as syntax can
// tell).
func callerUses(f *ast.File, names, methods map[string]bool) {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		switch {
		case !ok || imports[id.Name] == "":
			methods[sel.Sel.Name] = true
		case imports[id.Name] == "pocketcloudlets":
			names[sel.Sel.Name] = true
		}
		return true
	})
}
