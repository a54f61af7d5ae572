// Command hifindlint runs the repo's custom static-analysis rules
// (internal/analyze) over the module as one program: the call graph is
// built across every package, so hot-path classification and
// determinism reachability propagate through cross-package calls even
// when only a subset of packages is selected for reporting.
//
// Usage:
//
//	hifindlint [-rules list] [-json] [-audit] [-selfcheck] [-list] [packages]
//
// With no package arguments (or "./...") findings for the whole module
// are reported. Findings print as file:line:col: rule: message, sorted
// by position, and the exit status is 1 when any survive. Suppress an
// individual finding by putting
//
//	//lint:ignore <RuleID> reason
//
// on the flagged line or the line above it; the reason is mandatory.
//
// Flags:
//
//	-rules a,b,c   run only the named rules (default: all)
//	-json          emit findings as a JSON array instead of text
//	-audit         also report //lint:ignore directives that suppress
//	               nothing (rule unused-suppression) and fail on them
//	-selfcheck     verify the analyzers against their own golden
//	               testdata (internal/analyze/testdata) and exit
//	-list          list the available rules and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/hifind/hifind/internal/analyze"
)

func main() {
	var (
		rules     = flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
		jsonOut   = flag.Bool("json", false, "emit findings as JSON")
		audit     = flag.Bool("audit", false, "also fail on unused //lint:ignore directives")
		selfcheck = flag.Bool("selfcheck", false, "verify the rules against their golden testdata and exit")
		list      = flag.Bool("list", false, "list the available rules and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hifindlint [-rules list] [-json] [-audit] [-selfcheck] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyze.Analyzers() {
			fmt.Printf("%-22s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := analyze.SelectAnalyzers(*rules)
	if err != nil {
		fatal(err)
	}
	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	mod, err := analyze.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	if *selfcheck {
		runSelfcheck(mod, root)
		return
	}

	selected, err := selectPackages(mod, flag.Args())
	if err != nil {
		fatal(err)
	}

	// The program is always the whole module — cross-package facts
	// (transitive hotness, determinism reachability) need every
	// package — and the package selection only filters what gets
	// reported.
	pkgs := make([]*analyze.Package, 0, len(mod.Packages()))
	for _, path := range mod.Packages() {
		pkg, err := mod.Load(path)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	res := analyze.RunProgram(analyze.NewProgram(pkgs), analyzers)

	report := filterByPackage(res.Findings, selected)
	if *audit {
		report = append(report, filterByPackage(res.Unused, selected)...)
	}
	for i := range report {
		if rel, err := filepath.Rel(root, report[i].Pos.Filename); err == nil {
			report[i].Pos.Filename = rel
		}
	}

	if *jsonOut {
		printJSON(report)
	} else {
		for _, f := range report {
			fmt.Println(f)
		}
		fmt.Fprintf(os.Stderr, "hifindlint: %d packages, %d rules, %d findings\n",
			len(selected), len(analyzers), len(report))
	}
	if len(report) > 0 {
		os.Exit(1)
	}
}

// runSelfcheck verifies the analyzers against the golden testdata they
// ship with: every want comment must still match, every finding must
// still be wanted. A rule change without a testdata change fails here.
func runSelfcheck(mod *analyze.Module, root string) {
	testdata := filepath.Join(root, "internal", "analyze", "testdata")
	problems, err := analyze.SelfCheck(mod, testdata)
	if err != nil {
		fatal(err)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	fmt.Fprintf(os.Stderr, "hifindlint: selfcheck %s: %d problems\n", testdata, len(problems))
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// filterByPackage keeps the findings reported in one of the selected
// packages. Findings are already position-sorted and filtering is
// stable, so the output order survives.
func filterByPackage(findings []analyze.Finding, selected []string) []analyze.Finding {
	want := make(map[string]bool, len(selected))
	for _, p := range selected {
		want[p] = true
	}
	out := make([]analyze.Finding, 0, len(findings))
	for _, f := range findings {
		if want[f.Pkg] {
			out = append(out, f)
		}
	}
	return out
}

// jsonFinding is the -json output shape, one object per finding.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	Package string `json:"package"`
}

func printJSON(findings []analyze.Finding) {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:    f.Pos.Filename,
			Line:    f.Pos.Line,
			Column:  f.Pos.Column,
			Rule:    f.Rule,
			Message: f.Message,
			Package: f.Pkg,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("hifindlint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// selectPackages resolves command-line patterns to module import paths.
// Supported: no args or "./..." (everything), "dir/..." (subtree), and
// plain directory paths relative to the module root.
func selectPackages(mod *analyze.Module, args []string) ([]string, error) {
	all := mod.Packages()
	if len(args) == 0 {
		return all, nil
	}
	var out []string
	seen := make(map[string]bool)
	for _, arg := range args {
		clean := strings.TrimPrefix(filepath.ToSlash(arg), "./")
		matched := false
		for _, path := range all {
			rel := strings.TrimPrefix(strings.TrimPrefix(path, mod.Path), "/")
			ok := false
			switch {
			case clean == "..." || clean == "":
				ok = true
			case strings.HasSuffix(clean, "/..."):
				prefix := strings.TrimSuffix(clean, "/...")
				ok = rel == prefix || strings.HasPrefix(rel, prefix+"/")
			default:
				ok = rel == clean
			}
			if ok && !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
			matched = matched || ok
		}
		if !matched {
			return nil, fmt.Errorf("hifindlint: pattern %q matches no packages", arg)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
