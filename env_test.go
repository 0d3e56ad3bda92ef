package motor_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEnvironmentReadOnlyInFill holds the module to one reader of the
// environment: no non-test file outside benchmark/ (which scrubs its
// children's environment) and testdata/ may name os.Getenv,
// os.LookupEnv or os.Environ anywhere but motor.go's Config.fill.
func TestEnvironmentReadOnlyInFill(t *testing.T) {
	readers := map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}
	fset := token.NewFileSet()
	files, fillReads := 0, 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		osNames := map[string]bool{}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
				name := "os"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				osNames[name] = true
			}
		}
		if len(osNames) == 0 {
			return nil
		}
		for _, decl := range f.Decls {
			inFill := path == "motor.go" && isConfigFill(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !readers[sel.Sel.Name] {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || !osNames[x.Name] {
					return true
				}
				if inFill {
					fillReads++
				} else {
					t.Errorf("%s: os.%s outside motor.go's Config.fill", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 || fillReads == 0 {
		t.Fatalf("scanned %d files and found %d reads in Config.fill: the walk missed the module", files, fillReads)
	}
}

// isConfigFill reports whether decl is the method (*Config).fill.
func isConfigFill(decl ast.Decl) bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Name.Name != "fill" || fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Config"
}
