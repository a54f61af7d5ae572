package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// atomicConsistencyAnalyzer enforces all-or-nothing atomicity: a struct
// field or package-level variable that is accessed through sync/atomic
// anywhere in the program must be accessed through sync/atomic
// everywhere. A mixed regime — atomic.AddInt64 on the writer side, a
// plain read on the reporting side — is a data race the race detector
// only catches when a test happens to exercise both sides concurrently;
// this rule catches it structurally, across package boundaries
// (multi-router aggregation splits writer and reader across packages
// as a matter of course). Fields of the atomic.Int64
// type family are immune by construction and preferred; the rule exists
// for the counters that predate them or need the address-based API.
var atomicConsistencyAnalyzer = &Analyzer{
	Name: "atomic-consistency",
	Doc:  "a field or global accessed via sync/atomic anywhere must be accessed atomically everywhere (cross-package)",
	Run:  runAtomicConsistency,
}

// atomicSite records where a variable was first seen used atomically,
// for the finding message.
type atomicSite struct {
	pos token.Position
}

// atomicAddressFns are the sync/atomic functions whose first argument
// is the address of the accessed variable.
func isAtomicAddressFn(name string) bool {
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// atomicOperand resolves the &x operand of a sync/atomic call to the
// variable it addresses, restricted to struct fields and package-level
// variables — the objects that outlive one stack frame and so can be
// shared between goroutines by identity.
func atomicOperand(info *types.Info, arg ast.Expr) (*types.Var, ast.Node) {
	unary, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || unary.Op != token.AND {
		return nil, nil
	}
	switch x := ast.Unparen(unary.X).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v, x
			}
		}
		// Package-qualified global: pkg.Var.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPackageLevel(v) {
			return v, x
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && isPackageLevel(v) {
			return v, x
		}
	}
	return nil, nil
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// collectAtomicSites scans the whole program once for sync/atomic calls
// and records (a) every field/global they address and (b) the exact AST
// nodes inside those calls, which the per-package check below must not
// re-flag. Packages are visited in sorted order, so the "first atomic
// use" attribution in messages is stable.
func (p *Program) collectAtomicSites() {
	p.atomicSites = make(map[*types.Var]atomicSite)
	p.sanctioned = make(map[ast.Node]bool)
	for _, pkg := range p.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || pkgOf(info, sel) != "sync/atomic" || !isAtomicAddressFn(sel.Sel.Name) {
					return true
				}
				v, node := atomicOperand(info, call.Args[0])
				if v == nil {
					return true
				}
				p.sanctioned[node] = true
				if _, seen := p.atomicSites[v]; !seen {
					p.atomicSites[v] = atomicSite{pos: pkg.Fset.Position(call.Pos())}
				}
				return true
			})
		}
	}
}

func runAtomicConsistency(pass *Pass) {
	prog := pass.Prog
	if len(prog.atomicSites) == 0 {
		return
	}
	info := pass.Pkg.Info
	report := func(node ast.Node, v *types.Var) {
		site := prog.atomicSites[v]
		pass.Reportf(node.Pos(),
			"%s is accessed with sync/atomic at %s:%d but plainly here; every access must be atomic (or use the atomic.Int64 type family)",
			v.Name(), site.pos.Filename, site.pos.Line)
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if prog.sanctioned[x] {
					return false // the &x of an atomic call, fields included
				}
				var v *types.Var
				if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
					v, _ = sel.Obj().(*types.Var)
				} else if u, ok := info.Uses[x.Sel].(*types.Var); ok {
					v = u
				}
				if v != nil {
					if _, tracked := prog.atomicSites[v]; tracked {
						report(x, v)
						return false // don't re-flag the selector's own idents
					}
				}
			case *ast.Ident:
				if prog.sanctioned[x] {
					return false
				}
				if v, ok := info.Uses[x].(*types.Var); ok && isPackageLevel(v) {
					if _, tracked := prog.atomicSites[v]; tracked {
						report(x, v)
					}
				}
			}
			return true
		})
	}
}

// String implements a debugging aid for atomicSite.
func (s atomicSite) String() string { return fmt.Sprintf("%s:%d", s.pos.Filename, s.pos.Line) }
