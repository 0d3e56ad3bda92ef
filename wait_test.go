package motor_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestIdleOnlyInTheWaits holds the module to one polling-wait: the
// device's idle step (adi.Device.Idle) may be called only from
// core.Engine.await and adi.Device.WaitReq, which also carry the
// watchdog heartbeat and park on async ranks, and from the two wrapper
// baselines (internal/baseline/pinvoke, internal/baseline/jni), which
// reproduce the paper's Fig. 9 wrappers with waits of their own. A
// loop of its own elsewhere is a wait the watchdog cannot see.
func TestIdleOnlyInTheWaits(t *testing.T) {
	allowed := map[string]string{ // directory -> the one method that may idle
		"internal/core":   "Engine.await",
		"internal/mp/adi": "Device.WaitReq",
	}
	baselines := map[string]bool{"internal/baseline/pinvoke": true, "internal/baseline/jni": true}
	fset := token.NewFileSet()
	files, waits := 0, 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if baselines[dir] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, decl := range f.Decls {
			name := funcName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Idle" {
					return true
				}
				if name != "" && allowed[dir] == name {
					waits++
				} else {
					t.Errorf("%s: Idle called in %s, outside Engine.await and Device.WaitReq", fset.Position(call.Pos()), name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 || waits != 2 {
		t.Fatalf("scanned %d files and found %d idle steps in the two waits, want 2: the walk missed the module", files, waits)
	}
}

// funcName names a function declaration as Recv.Name (Name for a
// function), or "" for any other declaration.
func funcName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
