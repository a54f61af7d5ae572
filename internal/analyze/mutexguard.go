package analyze

import (
	"go/ast"
	"go/types"
)

// mutexGuardAnalyzer keeps the multi-router aggregation and collector
// paths data-race free: within a struct, a mutex field guards the fields
// declared after it (the standard Go layout convention, used by
// netflow.Collector). An exported method that touches a guarded field
// without locking the mutex is a race with every other caller. Copies of
// mutex-bearing values are go vet's copylocks check, which `make vet`
// runs.
var mutexGuardAnalyzer = &Analyzer{
	Name: "mutex-guard",
	Doc:  "flags exported methods touching mutex-guarded fields without locking",
	Run:  checkMutexGuards,
}

// isMutex reports whether t is exactly sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// guardedStruct describes one struct with a mutex field: the mutex field
// name ("" when embedded) and the names of the fields declared after it,
// which the layout convention says it guards.
type guardedStruct struct {
	mutexField string
	guarded    map[string]bool
}

// findGuardedStructs maps named struct types to their guard layout.
func findGuardedStructs(pass *Pass) map[string]guardedStruct {
	out := make(map[string]guardedStruct)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				gs := guardedStruct{guarded: make(map[string]bool)}
				sawMutex := false
				for _, field := range st.Fields.List {
					tv, ok := pass.Pkg.Info.Types[field.Type]
					isMu := ok && isMutex(tv.Type)
					if isMu && !sawMutex {
						sawMutex = true
						if len(field.Names) > 0 {
							gs.mutexField = field.Names[0].Name
						}
						continue
					}
					if sawMutex {
						for _, name := range field.Names {
							gs.guarded[name.Name] = true
						}
					}
				}
				if sawMutex && len(gs.guarded) > 0 {
					out[ts.Name.Name] = gs
				}
			}
		}
	}
	return out
}

func checkMutexGuards(pass *Pass) {
	structs := findGuardedStructs(pass)
	if len(structs) == 0 {
		return
	}
	info := pass.Pkg.Info
	inspectFuncBodies(pass.Pkg, func(decl *ast.FuncDecl) {
		if decl.Recv == nil || !decl.Name.IsExported() {
			return
		}
		recvField := decl.Recv.List[0]
		if len(recvField.Names) == 0 {
			return
		}
		recvName := recvField.Names[0]
		recvObj := info.Defs[recvName]
		if recvObj == nil {
			return
		}
		typeName := receiverTypeName(recvField.Type)
		gs, ok := structs[typeName]
		if !ok {
			return
		}
		locked := false
		var touched []*ast.SelectorExpr
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// recv.mu.Lock() / recv.mu.RLock(), or recv.Lock() for an
			// embedded mutex.
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				switch x := sel.X.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && info.Uses[id] == recvObj && x.Sel.Name == gs.mutexField {
						locked = true
					}
				case *ast.Ident:
					if gs.mutexField == "" && info.Uses[x] == recvObj {
						locked = true
					}
				}
			}
			if id, ok := sel.X.(*ast.Ident); ok && info.Uses[id] == recvObj && gs.guarded[sel.Sel.Name] {
				touched = append(touched, sel)
			}
			return true
		})
		if locked {
			return
		}
		for _, sel := range touched {
			pass.Reportf(sel.Pos(),
				"exported method %s touches %q, declared after mutex %q, without locking it",
				decl.Name.Name, sel.Sel.Name, mutexFieldName(gs))
		}
	})
}

func mutexFieldName(gs guardedStruct) string {
	if gs.mutexField == "" {
		return "sync.Mutex (embedded)"
	}
	return gs.mutexField
}

// receiverTypeName unwraps *T / T receiver syntax to the type name.
func receiverTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return receiverTypeName(e.X)
	case *ast.IndexListExpr:
		return receiverTypeName(e.X)
	}
	return ""
}
