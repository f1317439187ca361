// Package lint is a dependency-free static-analysis framework that
// mechanizes the repository's determinism and concurrency invariants.
//
// The same guarantees used to be re-proved by brute force —
// byte-identical artifacts across parallel 1/8 and tracing on/off —
// through expensive differential tests. The analyzers in this package
// turn those tribal invariants into compile-time checks:
//
//   - detsource:  no wall clock, global math/rand, or environment reads
//     in determinism-critical packages
//   - maporder:   no order-sensitive work inside map iteration without a
//     deterministic sort afterwards
//   - atomicmix:  a field touched via sync/atomic is never read or
//     written plainly
//   - spanend:    every obs.Start/StartTrace span reaches End/EndErr on
//     all return paths
//   - errclass:   llm completion paths return typed *llm.Error, not bare
//     fmt.Errorf / errors.New
//
// The framework is stdlib-only (go/ast, go/parser, go/types, and a
// `go list -json` driver); the module has zero external dependencies
// and must stay that way.
//
// Findings are suppressible only via an explicit
//
//	//lint:allow <rule> <reason>
//
// comment on the offending line or on its own line directly above.
// Suppressed findings are still recorded (Diagnostic.Allowed=true, with
// the reason) so the suppression surface stays auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding from one analyzer.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	// Allowed reports that an explicit //lint:allow directive suppressed
	// this finding; Reason records the justification it carried.
	Allowed bool   `json:"allowed"`
	Reason  string `json:"reason,omitempty"`
}

// Analyzer is one named rule. Run inspects a single type-checked package
// and reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:    at.Filename,
		Line:    at.Line,
		Col:     at.Column,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full rule suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetSource,
		MapOrder,
		AtomicMix,
		SpanEnd,
		ErrClass,
	}
}

// AnalyzerByName returns the named analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Analyze runs the given analyzers over the given packages, applies
// //lint:allow directives, and returns all diagnostics (allowed ones
// included, marked) sorted by file, line, column, rule.
func Analyze(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			a.Run(pass)
		}
		diags = applyAllows(pkg, diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	file   string
	line   int
	rule   string
	reason string
}

// applyAllows scans pkg's comments for //lint:allow directives and marks
// matching diagnostics as allowed. A directive suppresses findings for
// its rule on the same line or on the line directly below (directive on
// its own line above the offending statement). A directive with no
// reason is itself a finding: suppressions must be auditable.
func applyAllows(pkg *Package, diags []Diagnostic) []Diagnostic {
	var directives []allowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				at := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					diags = append(diags, Diagnostic{
						File: at.Filename, Line: at.Line, Col: at.Column,
						Rule:    "lint",
						Message: "malformed //lint:allow directive: want //lint:allow <rule> <reason>",
					})
					continue
				}
				rule, reason := fields[0], strings.Join(fields[1:], " ")
				if reason == "" {
					diags = append(diags, Diagnostic{
						File: at.Filename, Line: at.Line, Col: at.Column,
						Rule:    "lint",
						Message: fmt.Sprintf("//lint:allow %s has no reason; suppressions must say why", rule),
					})
					continue
				}
				directives = append(directives, allowDirective{
					file: at.Filename, line: at.Line, rule: rule, reason: reason,
				})
			}
		}
	}
	if len(directives) == 0 {
		return diags
	}
	for i := range diags {
		d := &diags[i]
		if d.Allowed || d.Rule == "lint" {
			continue
		}
		for _, dir := range directives {
			if dir.file != d.File || dir.rule != d.Rule {
				continue
			}
			if dir.line == d.Line || dir.line == d.Line-1 {
				d.Allowed = true
				d.Reason = dir.reason
				break
			}
		}
	}
	return diags
}

// determinismCritical lists the package path segments whose build paths
// must be bit-reproducible: any package whose import path contains one
// of these segments feeds benchmark artifacts, so a stray wall-clock
// read or random map iteration there silently breaks the byte-identity
// guarantee every PR has preserved.
var determinismCritical = map[string]bool{
	"datagen":  true,
	"sqlast":   true,
	"workload": true,
	"nlgen":    true,
	"mutate":   true,
	"engine":   true,
	"equiv":    true,
	"core":     true,
	// The scoring and rendering layer: a float summed in map order shifts
	// the low bits of a printed score.
	"metrics":     true,
	"report":      true,
	"stats":       true,
	"experiments": true,
}

// isDeterminismCritical reports whether the import path names a package
// whose outputs must be byte-reproducible.
func isDeterminismCritical(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if determinismCritical[seg] {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the *types.Func it invokes,
// or nil (builtins, func-typed variables, type conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package an object belongs
// to, or "" for builtins and the universe scope.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// pathHasSegment reports whether the import path contains seg as a
// whole path element (so "internal/llm" matches "llm" but
// "internal/llmx" does not).
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// shortPath renders a file path relative to the current directory when
// that is shorter, for compact cross-reference messages.
func shortPath(path string) string {
	if cwd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(cwd, path); err == nil && len(rel) < len(path) {
			return rel
		}
	}
	return path
}

// inspectWithStack walks the AST under root calling f with each node and
// the stack of its ancestors (outermost first, not including n itself).
// Returning false from f prunes the subtree.
func inspectWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
