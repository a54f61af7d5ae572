package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathPackages are the sketch-family packages whose per-packet
// operations carry the paper's line-rate budget (§5.5.2: a handful of
// memory accesses per packet, nothing else), plus the telemetry metric
// primitives whose Add/Set/Observe those hot paths may call.
var hotpathPackages = []string{
	"internal/sketch",
	"internal/revsketch",
	"internal/burst",
	"internal/sketch2d",
	"internal/bloom",
	"internal/core",
	"internal/flowcache",
	"internal/telemetry",
}

// telemetryPackage scopes the instrumentation-call check below.
var telemetryPackage = []string{"internal/telemetry"}

// telemetryHotFuncs are the telemetry methods sanctioned inside hot
// paths: single atomic operations, allocation-free by construction (and
// alloc-checked here, since internal/telemetry is a hotpath package).
// Everything else in the package — registration, exposition, snapshots,
// sinks — allocates and belongs at setup or rotation time.
var telemetryHotFuncs = map[string]bool{
	"Add":     true,
	"Inc":     true,
	"Set":     true,
	"SetMax":  true,
	"Observe": true,
	"Value":   true, // atomic load; cheap reads are fine
	"Count":   true,
	"Sum":     true,
}

// hotpathFunc reports whether a function name is part of the UPDATE /
// ESTIMATE / COMBINE hot-path contract (paper Table 2; COMBINE is
// AddBinary, which sums serialized state in place), the recorder's
// per-packet Observe/ObserveFlow and its update internals, or the plan
// API the recorder fills and applies per packet. EstimateGrid and
// friends share the Estimate budget, and the recorder's update (also
// reached from the flow cache's flush sink, not only from Observe)
// shares Observe's, hence the prefix matches. In internal/telemetry the
// contract covers the sanctioned instrumentation methods instead.
func hotpathFunc(pkgPath, name string) bool {
	if pathMatchesAny(pkgPath, telemetryPackage) {
		return telemetryHotFuncs[name]
	}
	return name == "Update" || name == "UpdateAt" || name == "FillPlan" ||
		name == "AddBinary" ||
		strings.HasPrefix(name, "Estimate") ||
		strings.HasPrefix(name, "Observe") ||
		strings.HasPrefix(name, "update")
}

var hotpathAllocAnalyzer = &Analyzer{
	Name: "hotpath-alloc",
	Doc:  "forbids heap allocation (make/append/map or slice literals/fmt.Sprint*/string concat) and non-hot telemetry calls in the transitive hot set rooted at Update/Estimate/AddBinary/Observe and //hifind:hot functions",
	Run:  runHotpathAlloc,
}

func runHotpathAlloc(pass *Pass) {
	info := pass.Pkg.Info
	inspectFuncBodies(pass.Pkg, func(decl *ast.FuncDecl) {
		node := pass.Prog.nodeOf(pass.Pkg, decl)
		if node == nil || !node.hot {
			return
		}
		name := decl.Name.Name
		if chain := pass.Prog.hotChain(node); chain != "" {
			name += " (hot via " + chain + ")"
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				switch fun := e.Fun.(type) {
				case *ast.Ident:
					if b, ok := info.Uses[fun].(*types.Builtin); ok {
						switch b.Name() {
						case "make", "append", "new":
							pass.Reportf(e.Pos(), "%s allocates in hot path %s; hoist the buffer into the struct or use a fixed-size array", b.Name(), name)
						}
					}
				case *ast.SelectorExpr:
					if pkgOf(info, fun) == "fmt" {
						switch fun.Sel.Name {
						case "Sprintf", "Sprint", "Sprintln":
							pass.Reportf(e.Pos(), "fmt.%s allocates in hot path %s", fun.Sel.Name, name)
						}
					}
					if callee, ok := telemetryCallee(info, fun); ok && !telemetryHotFuncs[callee] {
						pass.Reportf(e.Pos(), "telemetry.%s is not allocation-free; only Add/Inc/Set/SetMax/Observe-style metric ops belong in hot path %s — register metrics at construction time", callee, name)
					}
				}
			case *ast.CompositeLit:
				switch info.Types[e].Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(e.Pos(), "map literal allocates in hot path %s", name)
				case *types.Slice:
					pass.Reportf(e.Pos(), "slice literal allocates in hot path %s", name)
				}
			case *ast.BinaryExpr:
				if e.Op != token.ADD {
					return true
				}
				tv := info.Types[e]
				if tv.Value != nil { // constant-folded at compile time
					return true
				}
				if isString(tv.Type) {
					pass.Reportf(e.Pos(), "string concatenation allocates in hot path %s", name)
				}
			case *ast.AssignStmt:
				if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isString(info.Types[e.Lhs[0]].Type) {
					pass.Reportf(e.Pos(), "string concatenation allocates in hot path %s", name)
				}
			}
			return true
		})
	})
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// pkgOf returns the package path a selector's qualifier refers to, or ""
// when the qualifier is not a package name.
func pkgOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// telemetryCallee resolves a selector call to a function or method
// defined in internal/telemetry, reporting its name. Covers both method
// calls on telemetry types (counter.Add) and package-qualified calls
// (telemetry.NewRegistry), however the package was imported.
func telemetryCallee(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	if s, ok := info.Selections[sel]; ok {
		fn, ok := s.Obj().(*types.Func)
		if !ok || fn.Pkg() == nil {
			return "", false
		}
		if !pathMatchesAny(fn.Pkg().Path(), telemetryPackage) {
			return "", false
		}
		return fn.Name(), true
	}
	if pathMatchesAny(pkgOf(info, sel), telemetryPackage) {
		return sel.Sel.Name, true
	}
	return "", false
}
