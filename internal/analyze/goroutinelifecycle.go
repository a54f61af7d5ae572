package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroutineLifecycleAnalyzer requires every goroutine started in a
// library package to have a provable way to stop: either it is joined
// (its body reaches a sync.WaitGroup.Done, the collector/worker
// pattern) or it is cancellable (its body blocks on a channel receive,
// select or channel range somewhere — a done channel, a context's
// Done, a queue that closes). A goroutine with neither is a leak: the
// facade's -linger teardown and the test suite's goroutine-leak checks
// assume background work can be shut down deterministically.
//
// Package main is exempt (process exit bounds those goroutines), as
// are goroutines whose target cannot be resolved statically — except
// those are reported too, with a distinct message, because "cannot
// prove it stops" is exactly the situation the rule exists to surface.
// Evidence is searched in the spawned function's body and transitively
// through its statically-resolved callees.
var goroutineLifecycleAnalyzer = &Analyzer{
	Name: "goroutine-lifecycle",
	Doc:  "goroutines in library packages must be joined (WaitGroup) or cancellable (channel receive/select); leaks are flagged",
	Run:  runGoroutineLifecycle,
}

func runGoroutineLifecycle(pass *Pass) {
	if pass.Pkg.Types.Name() == "main" {
		return // process lifetime bounds main's goroutines
	}
	info := pass.Pkg.Info
	inspectFuncBodies(pass.Pkg, func(decl *ast.FuncDecl) {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch target := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				if !pass.Prog.lifecycleEvidence(info, target.Body, make(map[*types.Func]bool)) {
					pass.Reportf(g.Pos(), "goroutine is neither joined (WaitGroup.Done) nor cancellable (channel receive/select); it cannot be shut down")
				}
			default:
				fn := calleeOf(info, g.Call)
				if fn == nil {
					pass.Reportf(g.Pos(), "goroutine target cannot be resolved statically; its lifecycle is unverifiable — spawn a named function or method instead")
					return true
				}
				node, ok := pass.Prog.Graph.nodes[fn]
				if !ok {
					pass.Reportf(g.Pos(), "goroutine runs %s, which is outside the analyzed packages; its lifecycle is unverifiable", fn.Name())
					return true
				}
				if !pass.Prog.lifecycleEvidence(node.pkg.Info, node.decl.Body, map[*types.Func]bool{fn: true}) {
					pass.Reportf(g.Pos(), "goroutine %s is neither joined (WaitGroup.Done) nor cancellable (channel receive/select); it cannot be shut down", fn.Name())
				}
			}
			return true
		})
	})
}

// lifecycleEvidence reports whether body (or any statically-resolved
// callee, transitively) contains join or cancellation evidence: a
// sync.WaitGroup.Done call, a channel receive, a select statement, or a
// range over a channel.
func (p *Program) lifecycleEvidence(info *types.Info, body *ast.BlockStmt, visited map[*types.Func]bool) bool {
	found := false
	var callees []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true // channel receive
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if s, ok := info.Selections[sel]; ok && isWaitGroup(s.Recv()) {
					found = true
					return false
				}
			}
			if fn := calleeOf(info, x); fn != nil && !visited[fn] {
				visited[fn] = true
				callees = append(callees, fn)
			}
		}
		return !found
	})
	if found {
		return true
	}
	for _, fn := range callees {
		node, ok := p.Graph.nodes[fn]
		if !ok {
			continue
		}
		if p.lifecycleEvidence(node.pkg.Info, node.decl.Body, visited) {
			return true
		}
	}
	return false
}

// isWaitGroup reports whether t (possibly a pointer) is sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
