package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the rule that fired, and a
// human-readable message. Pkg carries the import path of the package
// the finding was reported in, so drivers can filter program-wide
// results down to the packages a user selected.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
	Pkg     string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Analyzer is one independent rule.
type Analyzer struct {
	// Name is the rule ID used in reports and //lint:ignore directives.
	Name string
	// Doc is a one-line description for `hifindlint -list`.
	Doc string
	// Run inspects the pass's package — consulting the program for
	// cross-package facts — and reports findings through the pass.
	Run func(*Pass)
}

// Pass is the per-(analyzer, package) context handed to Analyzer.Run.
type Pass struct {
	// Prog is the whole program under analysis: the call graph and the
	// transitive hot set span every package in it.
	Prog *Program
	// Pkg is the package this pass visits; findings belong to it.
	Pkg      *Package
	rule     string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
		Pkg:     p.Pkg.Path,
	})
}

// Analyzers returns every registered rule, sorted by name.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		hotpathAllocAnalyzer,
		seededRandAnalyzer,
		floatEqAnalyzer,
		mutexGuardAnalyzer,
		uncheckedCloseAnalyzer,
		goroutineLifecycleAnalyzer,
		determinismAnalyzer,
		boundedQueueAnalyzer,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// SelectAnalyzers resolves a comma-separated rule list to analyzers,
// erroring on unknown names. An empty list selects everything.
func SelectAnalyzers(rules string) ([]*Analyzer, error) {
	all := Analyzers()
	if strings.TrimSpace(rules) == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analyze: unknown rule %q (run with -list for the rule set)", name)
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analyze: rule list %q selects nothing", rules)
	}
	return out, nil
}

// Result is one program analysis run: the surviving findings, and the
// suppression directives that matched nothing (so suppressions cannot
// rot silently — see the unused-suppression audit in cmd/hifindlint).
type Result struct {
	// Findings are the diagnostics that survived suppression, sorted by
	// file, line, column, rule — stable across package-load order.
	Findings []Finding
	// Unused are //lint:ignore directives for rules in the executed
	// analyzer set that suppressed no finding, reported as findings with
	// rule "unused-suppression", in the same order.
	Unused []Finding
}

// RunProgram runs the given analyzers over every package of the program
// and returns the surviving findings: suppression directives in the
// source are honored, malformed or unknown-rule directives are
// themselves reported (rule "lint-directive") so a typo cannot silently
// disable a rule, and directives that matched nothing are returned
// separately for the audit.
func RunProgram(prog *Program, analyzers []*Analyzer) Result {
	executed := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		executed[a.Name] = true
	}
	var res Result
	for _, pkg := range prog.Pkgs {
		var raw []Finding
		for _, a := range analyzers {
			a.Run(&Pass{Prog: prog, Pkg: pkg, rule: a.Name, findings: &raw})
		}
		directives, malformed := collectDirectives(pkg)
		res.Findings = append(res.Findings, malformed...)
		for _, f := range raw {
			suppressed := false
			for _, d := range directives {
				if d.covers(f) {
					d.used = true
					suppressed = true
				}
			}
			if !suppressed {
				res.Findings = append(res.Findings, f)
			}
		}
		for _, d := range directives {
			if !d.used && executed[d.rule] {
				res.Unused = append(res.Unused, Finding{
					Pos:     d.pos,
					Rule:    "unused-suppression",
					Message: fmt.Sprintf("//lint:ignore %s matches no finding; the code was fixed or the rule changed — delete the directive", d.rule),
					Pkg:     pkg.Path,
				})
			}
		}
	}
	sortFindings(res.Findings)
	sortFindings(res.Unused)
	return res
}

// sortFindings orders findings by file, line, column, then rule, so
// output is deterministic regardless of package iteration order.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return fs[i].Rule < fs[j].Rule
	})
}

// directive is one parsed //lint:ignore, with usage tracking for the
// unused-suppression audit.
type directive struct {
	pos  token.Position
	rule string
	used bool
}

// covers reports whether the directive suppresses the finding: the rule
// must match and the directive must sit on the finding's line or the
// line directly above it, in the same file.
func (d *directive) covers(f Finding) bool {
	return d.rule == f.Rule && d.pos.Filename == f.Pos.Filename &&
		(d.pos.Line == f.Pos.Line || d.pos.Line == f.Pos.Line-1)
}

// knownRules memoizes the registered rule IDs for directive validation.
var knownRules = func() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}()

// collectDirectives scans a package's comments for
//
//	//lint:ignore <RuleID> <reason>
//
// directives. The reason is mandatory and the rule must exist;
// directives violating either are reported as findings instead of
// being honored.
func collectDirectives(pkg *Package) ([]*directive, []Finding) {
	var directives []*directive
	var malformed []Finding
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Finding{
						Pos:     pos,
						Rule:    "lint-directive",
						Message: "malformed //lint:ignore: want \"//lint:ignore <RuleID> reason\" (reason is mandatory)",
						Pkg:     pkg.Path,
					})
					continue
				}
				if !knownRules[fields[0]] {
					malformed = append(malformed, Finding{
						Pos:     pos,
						Rule:    "lint-directive",
						Message: fmt.Sprintf("//lint:ignore names unknown rule %q; it suppresses nothing", fields[0]),
						Pkg:     pkg.Path,
					})
					continue
				}
				directives = append(directives, &directive{pos: pos, rule: fields[0]})
			}
		}
	}
	return directives, malformed
}

// pathMatchesAny reports whether the package import path equals one of
// the given module-relative paths or ends with "/"+path — so the rule
// scoping works both for the real module and for golden-test packages
// loaded under synthetic import paths.
func pathMatchesAny(pkgPath string, relPaths []string) bool {
	for _, rel := range relPaths {
		if pkgPath == rel || strings.HasSuffix(pkgPath, "/"+rel) {
			return true
		}
	}
	return false
}

// inspectFuncBodies walks every function or method body in the package,
// calling fn with the enclosing declaration.
func inspectFuncBodies(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
