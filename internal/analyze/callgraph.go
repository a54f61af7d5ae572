package analyze

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the cross-package half of the engine: a static call
// graph over every loaded package, and the dataflow facts the analyzers
// derive from it.
//
// Hot-path classification is a two-point lattice propagated forward
// over call edges. The roots are the UPDATE/ESTIMATE/COMBINE-contract
// functions of the sketch-family packages (hotpath.go's naming
// convention) plus any function annotated `//hifind:hot`; from a root,
// hotness flows to every statically-resolved callee, transitively and
// across package boundaries, so a helper three calls below Update is
// held to the same per-packet budget as Update itself. `//hifind:cold`
// on a function is a barrier: the function is never classified hot and
// propagation does not continue through it — the escape hatch for
// rotation-time and error-path callees that run off the packet path by
// design.
//
// Limits, by construction: only static calls are edges (direct calls,
// method calls with a concrete receiver). Calls through interfaces,
// function values and channels are invisible, as are calls into
// packages loaded from export data (the standard library). Function
// literals are attributed to the declaration that encloses them, which
// matches how the alloc rule walks bodies.

// Annotation directives recognized on function declarations.
const (
	annotHot  = "//hifind:hot"
	annotCold = "//hifind:cold"
)

// funcNode is one function declaration in the program.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	callees []*types.Func // statically resolved, source order, deduped

	hot     bool
	cold    bool
	hotFrom *types.Func // BFS parent toward a hot root; nil for roots

	detReach bool        // reachable from a determinism root
	detFrom  *types.Func // BFS parent toward a determinism root
	detRoot  bool
}

// CallGraph maps every function declared in the loaded packages to its
// statically-resolved callees.
type CallGraph struct {
	nodes map[*types.Func]*funcNode
}

// Program is a set of packages analyzed together: the unit over which
// cross-package facts (the call graph, transitive hot-path
// classification, determinism reachability) are computed. Analyzers
// receive the program through their Pass and the package they are
// visiting.
type Program struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// NewProgram builds the call graph and propagated facts for pkgs.
// Packages are sorted by import path so every derived ordering is
// independent of load order.
func NewProgram(pkgs []*Package) *Program {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	prog := &Program{
		Pkgs:  sorted,
		Graph: &CallGraph{nodes: make(map[*types.Func]*funcNode)},
	}
	for _, pkg := range sorted {
		prog.addPackage(pkg)
	}
	prog.propagateHot()
	prog.propagateDeterminism()
	return prog
}

// addPackage creates a node per function declaration and resolves its
// static callees.
func (p *Program) addPackage(pkg *Package) {
	inspectFuncBodies(pkg, func(decl *ast.FuncDecl) {
		fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		n := &funcNode{fn: fn, decl: decl, pkg: pkg}
		if doc := decl.Doc; doc != nil {
			for _, c := range doc.List {
				switch strings.TrimSpace(c.Text) {
				case annotHot:
					n.hot = true // a root; hotFrom stays nil
				case annotCold:
					n.cold = true
				}
			}
		}
		if n.cold {
			n.hot = false // cold wins over any annotation or naming
		}
		seen := make(map[*types.Func]bool)
		ast.Inspect(decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeOf(pkg.Info, call); callee != nil && !seen[callee] {
				seen[callee] = true
				n.callees = append(n.callees, callee)
			}
			return true
		})
		p.Graph.nodes[fn] = n
	})
}

// calleeOf resolves a call expression to the *types.Func it statically
// invokes, or nil for builtins, conversions, function values and
// interface calls.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if !isConcreteMethod(sel) {
				return nil // interface dispatch: target unknown statically
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func) // package-qualified call
		return fn
	}
	return nil
}

// isConcreteMethod reports whether a method selection has a concrete
// receiver (so the body that runs is the one the selection names).
func isConcreteMethod(sel *types.Selection) bool {
	if sel.Kind() != types.MethodVal && sel.Kind() != types.MethodExpr {
		return false
	}
	t := sel.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, isIface := t.Underlying().(*types.Interface)
	return !isIface
}

// sortedNodes returns the graph's nodes in deterministic order: package
// path, then declaration position within the package's file set.
func (p *Program) sortedNodes() []*funcNode {
	nodes := make([]*funcNode, 0, len(p.Graph.nodes))
	for _, n := range p.Graph.nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].pkg.Path != nodes[j].pkg.Path {
			return nodes[i].pkg.Path < nodes[j].pkg.Path
		}
		pi := nodes[i].pkg.Fset.Position(nodes[i].decl.Pos())
		pj := nodes[j].pkg.Fset.Position(nodes[j].decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return nodes
}

// propagateHot seeds the hot set from the naming convention and
// annotations, then floods it forward over call edges.
func (p *Program) propagateHot() {
	var queue []*funcNode
	for _, n := range p.sortedNodes() {
		if n.cold {
			continue
		}
		if n.hot || (pathMatchesAny(n.pkg.Path, hotpathPackages) && hotpathFunc(n.pkg.Path, n.fn.Name())) {
			n.hot = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, callee := range n.callees {
			cn, ok := p.Graph.nodes[callee]
			if !ok || cn.hot || cn.cold {
				continue
			}
			cn.hot = true
			cn.hotFrom = n.fn
			queue = append(queue, cn)
		}
	}
}

// determinismRootName reports whether a function name marks a
// determinism root on its own: the serialization surface (checkpoints
// and frames must be byte-stable across runs and routers, and AddBinary
// must sum them identically at every aggregation site) and the
// key-recovery inference (a nondeterministic traversal silently changes
// which keys are recovered).
func determinismRootName(name string) bool {
	for _, prefix := range []string{"Marshal", "Unmarshal", "marshal", "unmarshal", "AppendBinary", "AddBinary"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// propagateDeterminism floods determinism-relevance from its roots: the
// hot-path roots (UPDATE/ESTIMATE/COMBINE entry points — their callees
// are then reached by the flood itself, with the chain recorded), the
// key-recovery entry points of the sketch family (reverse-hashing
// Inference, which must recover the same keys on every run and router),
// and every marshal function in the module. Cold is not a barrier here —
// rotation-time code still feeds persistent state, so it must stay
// deterministic.
func (p *Program) propagateDeterminism() {
	var queue []*funcNode
	for _, n := range p.sortedNodes() {
		isRoot := (n.hot && n.hotFrom == nil) || determinismRootName(n.fn.Name()) ||
			(pathMatchesAny(n.pkg.Path, hotpathPackages) && strings.HasPrefix(n.fn.Name(), "Inference"))
		if isRoot {
			n.detReach = true
			n.detRoot = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, callee := range n.callees {
			cn, ok := p.Graph.nodes[callee]
			if !ok || cn.detReach {
				continue
			}
			cn.detReach = true
			cn.detFrom = n.fn
			queue = append(queue, cn)
		}
	}
}

// nodeOf returns the program node for a declaration in pkg, or nil.
func (p *Program) nodeOf(pkg *Package, decl *ast.FuncDecl) *funcNode {
	fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return nil
	}
	return p.Graph.nodes[fn]
}

// chain renders the propagation path root → … → fn using the given
// parent map accessor, e.g. "Observe → record → flushFlow".
func (p *Program) chain(fn *types.Func, parent func(*funcNode) *types.Func) string {
	var names []string
	for fn != nil {
		names = append(names, fn.Name())
		n, ok := p.Graph.nodes[fn]
		if !ok {
			break
		}
		fn = parent(n)
	}
	// Reverse: the walk collected callee-first.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// hotChain renders the hot-propagation path for a non-root hot
// function, or "" for roots and non-hot functions.
func (p *Program) hotChain(n *funcNode) string {
	if n == nil || !n.hot || n.hotFrom == nil {
		return ""
	}
	return p.chain(n.fn, func(m *funcNode) *types.Func { return m.hotFrom })
}

// detChain renders the determinism-reachability path, or "" for roots.
func (p *Program) detChain(n *funcNode) string {
	if n == nil || !n.detReach || n.detFrom == nil {
		return ""
	}
	return p.chain(n.fn, func(m *funcNode) *types.Func { return m.detFrom })
}
