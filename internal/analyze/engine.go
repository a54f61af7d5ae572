// Package analyze is a stdlib-only static-analysis engine for this
// module. It loads and type-checks packages with go/parser + go/ast +
// go/types — no golang.org/x/tools dependency — and runs a fixed set of
// analyzers that turn HiFIND's performance and determinism conventions
// (alloc-free sketch hot paths, seeded hashing, race-free aggregation)
// into machine-checked rules. The cmd/hifindlint driver wires the engine
// into `make check`; findings carry file:line positions and rule IDs and
// can be suppressed with `//lint:ignore <RuleID> reason`.
package analyze

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package.
type Package struct {
	// Path is the import path the package was loaded under. Rule
	// applicability (e.g. "only the sketch family") matches on suffixes of
	// this path, so golden-test packages loaded under synthetic paths hit
	// the same rules as the real module.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module loads a Go module for analysis. Packages inside the module are
// parsed and type-checked from source; imports from outside the module
// (the standard library — the module has no other dependencies) are
// satisfied from compiler export data located with `go list -export`,
// the same mechanism the go vet driver uses.
type Module struct {
	Dir  string // absolute module root (directory of go.mod)
	Path string // module path from go.mod

	fset    *token.FileSet
	pkgs    map[string]*Package // loaded module packages, by import path
	loading map[string]bool     // import cycle guard
	files   map[string][]string // module package GoFiles from go list
	dirs    map[string]string   // module package dir, by import path
	exports map[string]string   // export-data file, by import path
	gc      types.ImporterFrom  // export-data importer for non-module imports
}

// LoadModule prepares the module rooted at dir (the directory containing
// go.mod) for analysis. It shells out to `go list -export` once to map
// every dependency to its export data; module packages themselves are
// enumerated but not yet type-checked.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Dir:     abs,
		Path:    modPath,
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		files:   make(map[string][]string),
		dirs:    make(map[string]string),
		exports: make(map[string]string),
	}
	m.gc = importer.ForCompiler(m.fset, "gc", m.lookupExport).(types.ImporterFrom)
	if err := m.list(); err != nil {
		return nil, err
	}
	return m, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analyze: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analyze: no module directive in %s", gomod)
}

// list runs `go list -export -deps -json ./...` and records, for every
// package, either its source files (module packages) or its export data
// (everything else). The JSON stream is decoded with a tolerant hand
// parser: only ImportPath, Dir, Export and GoFiles are needed.
func (m *Module) list() error {
	out, err := m.goList("-e", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles", "./...")
	if err != nil {
		return err
	}
	type listPkg struct {
		ImportPath string
		Dir        string
		Export     string
		GoFiles    []string
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("analyze: go list output: %w", err)
		}
		if p.ImportPath == "" {
			continue
		}
		if m.isModulePath(p.ImportPath) {
			m.dirs[p.ImportPath] = p.Dir
			files := make([]string, 0, len(p.GoFiles))
			for _, f := range p.GoFiles {
				files = append(files, filepath.Join(p.Dir, f))
			}
			m.files[p.ImportPath] = files
		} else if p.Export != "" {
			m.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

func (m *Module) goList(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = m.Dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analyze: go list %s: %w", strings.Join(args, " "), err)
	}
	return out, nil
}

func (m *Module) isModulePath(path string) bool {
	return path == m.Path || strings.HasPrefix(path, m.Path+"/")
}

// Packages returns the module's own package import paths, sorted.
// Synthetic registrations (LoadDirAs/LoadTreeAs testdata) are loadable
// but deliberately not listed: they are fixtures, not module surface.
func (m *Module) Packages() []string {
	paths := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		if m.isModulePath(p) {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	return paths
}

// lookupExport feeds the gc importer: it resolves an import path to its
// export data, asking `go list` on demand for paths (such as golden-test
// imports) that were not among the module's dependencies.
func (m *Module) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := m.exports[path]
	if !ok {
		out, err := m.goList("-e", "-export", "-f", "{{.Export}}", path)
		if err != nil {
			return nil, err
		}
		file = strings.TrimSpace(string(out))
		if file == "" {
			return nil, fmt.Errorf("analyze: no export data for %q", path)
		}
		m.exports[path] = file
	}
	return os.Open(file)
}

// Import implements types.Importer.
func (m *Module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.Dir, 0)
}

// ImportFrom implements types.ImporterFrom, routing source-registered
// imports (module packages and registered testdata trees) to the source
// loader and everything else to export data.
func (m *Module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := m.files[path]; ok {
		pkg, err := m.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.gc.ImportFrom(path, dir, mode)
}

// Load parses and type-checks the source-registered package with the
// given import path (non-test files only). Results are cached; import
// cycles are reported rather than recursed into.
func (m *Module) Load(path string) (*Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("analyze: import cycle through %q", path)
	}
	files, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("analyze: %q is not a package of module %s", path, m.Path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)
	pkg, err := m.check(path, m.dirs[path], files)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// sourceFiles lists the analyzable Go files of dir: no _test.go files
// (the analyzers check production invariants), no files whose build
// constraints — //go:build lines or GOOS/GOARCH name suffixes — exclude
// them from the current platform's build, exactly the file set `go
// build` would compile.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	ctx := build.Default
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := ctx.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analyze: %s: %w", filepath.Join(dir, name), err)
		}
		if !ok {
			continue // excluded by build constraints
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files, nil
}

// register makes the standalone package in dir loadable (and importable
// from other registered packages) under the synthetic import path. The
// registration is idempotent; registering one path for two different
// directories is an error.
func (m *Module) register(dir, path string) error {
	if prev, ok := m.dirs[path]; ok {
		if prev != dir {
			return fmt.Errorf("analyze: import path %q registered for both %s and %s", path, prev, dir)
		}
		return nil
	}
	files, err := sourceFiles(dir)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("analyze: no Go files in %s", dir)
	}
	m.dirs[path] = dir
	m.files[path] = files
	return nil
}

// LoadDirAs parses and type-checks the standalone package in dir under a
// caller-chosen import path. The golden-file harness uses it to load
// testdata packages whose synthetic paths exercise path-scoped rules.
func (m *Module) LoadDirAs(dir, path string) (*Package, error) {
	if err := m.register(dir, path); err != nil {
		return nil, err
	}
	return m.Load(path)
}

// LoadTreeAs loads every package directory under root as one program:
// each directory holding Go files becomes a package at
// basePath/<dir-relative-to-root> (basePath itself for root), and the
// packages may import each other under those synthetic paths. The
// golden-file harness uses it to load multi-package testdata scenarios,
// so cross-package analyses (hot-path and determinism propagation)
// see the same shape they see on the real module.
func (m *Module) LoadTreeAs(root, basePath string) ([]*Package, error) {
	var dirs []string
	byDir := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !byDir[filepath.Dir(path)] {
			byDir[filepath.Dir(path)] = true
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("analyze: no Go packages under %s", root)
	}
	sort.Strings(dirs)
	// Register everything first so imports between the tree's packages
	// resolve regardless of load order.
	paths := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, fmt.Errorf("analyze: %w", err)
		}
		path := basePath
		if rel != "." {
			path = basePath + "/" + filepath.ToSlash(rel)
		}
		if err := m.register(dir, path); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := m.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses the given files and runs the type checker over them.
func (m *Module) check(path, dir string, files []string) (*Package, error) {
	asts := make([]*ast.File, 0, len(files))
	for _, f := range files {
		file, err := parser.ParseFile(m.fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analyze: %w", err)
		}
		asts = append(asts, file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := &types.Config{Importer: m}
	tpkg, err := cfg.Check(path, m.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("analyze: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  m.fset,
		Files: asts,
		Types: tpkg,
		Info:  info,
	}, nil
}
