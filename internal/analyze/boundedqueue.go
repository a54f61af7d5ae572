package analyze

import (
	"go/ast"
	"go/types"
)

// ingestionPackages are the layers that stand between the wire and the
// sketches: the NetFlow collector, the multi-router aggregation
// transport, and the hifind CLI's replay plumbing. Queues there absorb adversarial load, so their capacity is
// a resilience parameter, not an implementation detail.
var ingestionPackages = []string{
	"internal/netflow",
	"internal/aggregate",
	"cmd/hifind",
}

// boundedQueueAnalyzer pins down queue sizing on the ingestion paths:
// every data-carrying channel must be created with an explicit,
// configuration-derived capacity. An unbuffered data channel couples
// producer and consumer into lockstep (one slow consumer stalls the
// collector — the paper's DoS-resilience argument assumes ingestion
// never blocks on detection); a hardcoded literal capacity cannot be
// tuned per deployment and silently encodes one machine's assumptions.
// Channels of pure signal types (struct{}, error, bool, time.Time,
// os.Signal) are control-plane plumbing, not queues, and are exempt.
var boundedQueueAnalyzer = &Analyzer{
	Name: "bounded-queue",
	Doc:  "data channels on ingestion paths need an explicit config-derived capacity (no unbuffered makes, no literal sizes)",
	Run:  runBoundedQueue,
}

func runBoundedQueue(pass *Pass) {
	if !pathMatchesAny(pass.Pkg.Path, ingestionPackages) {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
				return true
			}
			tv, ok := info.Types[call]
			if !ok || tv.Type == nil {
				return true
			}
			ch, ok := tv.Type.Underlying().(*types.Chan)
			if !ok || isSignalType(ch.Elem()) {
				return true
			}
			elem := types.TypeString(ch.Elem(), types.RelativeTo(pass.Pkg.Types))
			if len(call.Args) < 2 {
				pass.Reportf(call.Pos(), "unbuffered channel of %s on an ingestion path couples producer to consumer; give it an explicit config-derived capacity", elem)
				return true
			}
			if lit, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit); ok {
				pass.Reportf(call.Pos(), "channel of %s sized by the literal %s; derive ingestion queue capacities from configuration (a flag, config field or named constant)", elem, lit.Value)
			}
			return true
		})
	}
}

// isSignalType reports whether a channel element type marks a pure
// signaling channel rather than a data queue.
func isSignalType(t types.Type) bool {
	// Named exemptions first: time.Time's underlying type is a non-empty
	// struct, so the structural checks below would misjudge it.
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() == nil {
			return obj.Name() == "error"
		}
		switch obj.Pkg().Path() + "." + obj.Name() {
		case "time.Time", "os.Signal":
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		return u.NumFields() == 0 // struct{}: the canonical done channel
	case *types.Basic:
		return u.Kind() == types.Bool
	}
	return false
}
