// Package rootbeforederef enforces the §5.3 safepoint/rooting
// discipline on engine entry points: an exported function that takes
// both a *vm.Thread and vm.Ref parameters must root every Ref it
// still needs after the first GC safepoint — direct (t.PollGC, t.Park,
// t.CollectYoung/Full, vm.PollPoint) or potential (any call that is
// handed the thread and so may poll) — with f := t.PushFrame(ref)
// before that safepoint, and after it read the Ref only back through
// the frame (f.Ref(i)): the parameter itself is a copy the collector
// does not forward. PR 6 fixed ten entry points that derived heap
// buffers from unrooted Ref arguments before their entry poll; with
// several VM threads sharing a rank, a sibling's collection in that
// window moves the object and the stale Ref (or a buffer derived from
// it) corrupts the transfer. This analyzer makes that bug class
// unrepresentable.
package rootbeforederef

import (
	"go/ast"
	"go/types"
	"math"
	"strings"

	"motor/internal/analysis/framework"
)

// Analyzer is the rootbeforederef pass.
var Analyzer = &framework.Analyzer{
	Name: "rootbeforederef",
	Doc: "exported entry points taking *vm.Thread and vm.Ref params must " +
		"root the refs with Thread.PushFrame before the first (potential) GC safepoint " +
		"and read them back through the frame after it",
	Scope: func(path string) bool {
		// The vm package implements the rooting machinery itself.
		return !strings.HasSuffix(path, "internal/vm")
	},
	Run: run,
}

// direct safepoint methods on vm.Thread / vm.VM.
var safepointMethods = map[string]bool{
	"PollGC":       true,
	"Park":         true,
	"CollectYoung": true,
	"CollectFull":  true,
	"PollPoint":    true,
}

const inf = math.MaxInt64

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// paramObjs returns the objects of the function's parameters (and
// receiver) matching the predicate.
func paramObjs(pass *framework.Pass, fd *ast.FuncDecl, match func(types.Type) bool) []*types.Var {
	var out []*types.Var
	fields := []*ast.Field{}
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	fields = append(fields, fd.Type.Params.List...)
	for _, f := range fields {
		for _, name := range f.Names {
			obj, ok := pass.Info.Defs[name].(*types.Var)
			if ok && match(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	isThread := func(t types.Type) bool {
		_, isPtr := t.(*types.Pointer)
		return isPtr && framework.NamedFrom(t, "vm", "Thread")
	}
	isRef := func(t types.Type) bool {
		_, isPtr := t.(*types.Pointer)
		return !isPtr && framework.NamedFrom(t, "vm", "Ref")
	}
	threads := paramObjs(pass, fd, isThread)
	refs := paramObjs(pass, fd, isRef)
	if len(threads) == 0 || len(refs) == 0 {
		return
	}
	threadSet := map[*types.Var]bool{}
	for _, t := range threads {
		threadSet[t] = true
	}
	refSet := map[*types.Var]bool{}
	for _, r := range refs {
		refSet[r] = true
	}

	// Event collection, positions as int offsets of token.Pos.
	rootPos := map[*types.Var]int{} // earliest PushFrame rooting per ref
	rootNode := map[*types.Var]ast.Node{}
	firstBoundary := inf // end of first (potential) safepoint call
	var boundaryDesc string
	var boundaryLine int
	firstUseAfter := map[*types.Var]ast.Node{}

	// Pass 1: roots and safepoint boundaries.
	framework.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, _ := call.Fun.(*ast.SelectorExpr)
		if sel != nil {
			if recv, ok := sel.X.(*ast.Ident); ok {
				if obj, ok := pass.Info.Uses[recv].(*types.Var); ok && threadSet[obj] {
					if sel.Sel.Name == "PushFrame" {
						for _, arg := range call.Args {
							id, ok := arg.(*ast.Ident)
							if !ok {
								continue
							}
							if r, ok := pass.Info.Uses[id].(*types.Var); ok && refSet[r] {
								if p, seen := rootPos[r]; !seen || int(call.Pos()) < p {
									rootPos[r] = int(call.Pos())
									rootNode[r] = call
								}
							}
						}
						return true
					}
					if safepointMethods[sel.Sel.Name] && !inDefer(stack) {
						if int(call.End()) < firstBoundary {
							firstBoundary = int(call.End())
							boundaryDesc = "safepoint " + recv.Name + "." + sel.Sel.Name
							boundaryLine = pass.Position(call.Pos()).Line
						}
						return true
					}
				}
			}
		}
		// Potential safepoint: the thread escapes into another call
		// (which may poll). PushFrame itself was handled above.
		if !inDefer(stack) {
			for _, arg := range call.Args {
				id, ok := arg.(*ast.Ident)
				if !ok {
					continue
				}
				if obj, ok := pass.Info.Uses[id].(*types.Var); ok && threadSet[obj] {
					if int(call.End()) < firstBoundary {
						firstBoundary = int(call.End())
						boundaryDesc = "call passing " + id.Name + " (may poll)"
						boundaryLine = pass.Position(call.Pos()).Line
					}
				}
			}
		}
		return true
	})

	if firstBoundary == inf {
		return // no safepoint can occur: forwarding entry, nothing to enforce
	}

	// Pass 2: uses of ref params after the boundary. Deferred uses run
	// at function exit, after every safepoint.
	framework.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "PushFrame" {
				if recv, ok := sel.X.(*ast.Ident); ok {
					if obj, ok := pass.Info.Uses[recv].(*types.Var); ok && threadSet[obj] {
						return false // rooting call: its ref args are not uses
					}
				}
			}
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		r, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || !refSet[r] {
			return true
		}
		pos := int(id.Pos())
		if inDefer(stack) {
			pos = inf - 1 // runs at exit
		}
		if pos > firstBoundary && firstUseAfter[r] == nil {
			firstUseAfter[r] = id
		}
		return true
	})

	for _, r := range refs {
		rp, rooted := rootPos[r]
		if rooted && rp > firstBoundary {
			pass.Reportf(rootNode[r].Pos(),
				"vm.Ref parameter %q is rooted after the first %s (line %d); "+
					"move `f := %s.PushFrame(%s)` above it — an unrooted ref is stale once a sibling thread collects (§5.3, PR 6 bug class)",
				r.Name(), boundaryDesc, boundaryLine, threads[0].Name(), r.Name())
			continue
		}
		use := firstUseAfter[r]
		if use == nil {
			continue // discipline followed
		}
		if rooted {
			pass.Reportf(use.Pos(),
				"vm.Ref parameter %q is read after the first %s (line %d); "+
					"it is rooted, so read it back through its frame (f.Ref) — the parameter is a copy the collector does not forward (§5.3, PR 6 bug class)",
				r.Name(), boundaryDesc, boundaryLine)
			continue
		}
		pass.Reportf(use.Pos(),
			"vm.Ref parameter %q is used after the first %s (line %d) without being rooted; "+
				"add `f := %s.PushFrame(%s)` before the first safepoint and read it back with f.Ref (§5.3, PR 6 bug class)",
			r.Name(), boundaryDesc, boundaryLine, threads[0].Name(), r.Name())
	}
}

// inDefer reports whether the ancestor stack passes through a defer
// statement (the node executes at function exit, or is the deferred
// expression itself).
func inDefer(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}
