package repro_test

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported declarations kept with no in-repo
// caller outside their own package's tests, each with the reason.
var exportAllowlist = map[string]string{
	"repro.Datasets":        "public facade: names the dataset arguments RunSyntaxTask and RunTask take",
	"repro.ExperimentTitle": "public facade: lets a library user label an artifact id from Experiments",
	"repro.RunExperiment":   "public facade: the library form of sqlbench -exp, shown in the package doc",
	"repro.Request":         "public facade: what a library Client's Do takes; llm.Request is internal",
	"repro.Response":        "public facade: what a library Client's Do returns; llm.Response is internal",
	"repro.Usage":           "public facade: the type of Response.Usage; llm.Usage is internal",
}

// interfaceMethods are method names a type may export to satisfy a
// standard-library interface that no file in the tree declares.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "GoString": true, "Format": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "Flush": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// exportSource is one parsed Go file of the tree.
type exportSource struct {
	dir  string
	test bool
	file *ast.File
}

// TestExportsHaveCallers keeps the export surface to what is used: every
// exported function, package-level type, and exported method of an
// exported type in a non-main package must be used (see deadExports) in a
// non-test file or in another directory's tests. A method whose name an
// interface in the tree (or a standard one) declares is exempt. The walk
// covers bench/ and examples/, so what they use counts as used.
func TestExportsHaveCallers(t *testing.T) {
	var srcs []exportSource
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		file, err := goparser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		srcs = append(srcs, exportSource{filepath.Dir(path), strings.HasSuffix(name, "_test.go"), file})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) < 100 {
		t.Fatalf("walked %d Go files; run from the repository root", len(srcs))
	}
	dead := map[string]bool{}
	for _, f := range deadExports(srcs) {
		dead[f] = true
		if _, ok := exportAllowlist[f]; !ok {
			t.Errorf("%s is exported but nothing outside its package's tests names it; delete it or call it", f)
		}
	}
	for f := range exportAllowlist {
		if !dead[f] {
			t.Errorf("allowlisted %s now has a caller (or is gone); drop it from exportAllowlist", f)
		}
	}

	// The check fires on planted dead functions and types and ignores the
	// planted methods: Unwrap satisfies the errors package's unnamed
	// interface, Emit the planted Sink. Complete is dead although another
	// package's Complete is called; Inner is used bare inside its own
	// package, Live through an aliased import. Sink and Err are named by
	// the user, Kind bare inside its own package; Unused, named only in
	// its own declaration, is dead.
	planted := `package obs
type Sink interface{ Emit() }
type Err struct{ err error; kind Kind }
type Kind int
type Unused struct{}
func (e *Err) Unwrap() error { return e.err }
func (e *Err) Emit() {}
func Dead() {}
func Complete() {}
func Inner() {}
func Live() { Inner() }
`
	user := `package main
import (
	"repro/internal/llm"
	o "repro/internal/obs"
)
func main() { o.Live(); var _ o.Sink = &o.Err{}; llm.Complete() }
`
	var plantedSrcs []exportSource
	for _, p := range []struct{ dir, src string }{{"internal/obs", planted}, {"cmd/x", user}} {
		file, err := goparser.ParseFile(fset, p.dir+"/planted.go", p.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		plantedSrcs = append(plantedSrcs, exportSource{p.dir, false, file})
	}
	if got := deadExports(plantedSrcs); strings.Join(got, " ") != "obs.Complete obs.Dead obs.Unused" {
		t.Errorf("planted: deadExports = %q, want [obs.Complete obs.Dead obs.Unused]", got)
	}
}

// modulePath is the root module's path; the bench/ module's own path,
// repro/bench, follows the same directory-to-path rule.
const modulePath = "repro"

// importPath returns the import path of the package in dir.
func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

// deadExports returns, sorted as "pkg.Func", "pkg.Type" or
// "pkg.Type.Method", the exported declarations of non-main packages that
// nothing outside their declaring directory's tests uses. A package-level
// function or type is used by a selector on an import of its own package's
// path, or by a bare use anywhere in its package outside its declaration.
// Methods are called through values, which the AST does not resolve, so a
// method counts as used when any identifier elsewhere bears its name.
func deadExports(srcs []exportSource) []string {
	type use struct {
		dir  string
		test bool
	}
	methodUses := map[string][]use{} // method name -> every use of the name
	funcUses := map[string][]use{}   // "path.Func" or "path.Type" -> selector and bare uses
	ifaceMethods := map[string]bool{}
	for _, s := range srcs {
		imports := map[string]string{} // local name -> import path
		for _, imp := range s.file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		self := importPath(s.dir)
		if strings.HasSuffix(s.file.Name.Name, "_test") {
			self = "" // an external test package uses its package by import
		}
		declared := map[*ast.Ident]bool{}
		selected := map[*ast.Ident]bool{}
		ast.Inspect(s.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
			case *ast.TypeSpec:
				declared[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					key := imports[x.Name] + "." + n.Sel.Name
					funcUses[key] = append(funcUses[key], use{s.dir, s.test})
				}
			case *ast.Ident:
				if declared[n] || !n.IsExported() {
					break
				}
				methodUses[n.Name] = append(methodUses[n.Name], use{s.dir, s.test})
				if !selected[n] && self != "" {
					key := self + "." + n.Name
					funcUses[key] = append(funcUses[key], use{s.dir, s.test})
				}
			}
			return true
		})
	}
	// usedOutside reports whether a use lies in a non-test file or in
	// another directory's tests.
	usedOutside := func(uses []use, dir string) bool {
		for _, u := range uses {
			if !u.test || u.dir != dir {
				return true
			}
		}
		return false
	}
	var dead []string
	for _, s := range srcs {
		if s.test || s.file.Name.Name == "main" {
			continue
		}
		pkg := s.file.Name.Name
		for _, d := range s.file.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && !usedOutside(funcUses[importPath(s.dir)+"."+ts.Name.Name], s.dir) {
						dead = append(dead, pkg+"."+ts.Name.Name)
					}
				}
				continue
			}
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := pkg + "." + fn.Name.Name
			uses := funcUses[importPath(s.dir)+"."+fn.Name.Name]
			if fn.Recv != nil {
				recv := receiverType(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) || ifaceMethods[fn.Name.Name] || interfaceMethods[fn.Name.Name] {
					continue
				}
				name = pkg + "." + recv + "." + fn.Name.Name
				uses = methodUses[fn.Name.Name]
			}
			if !usedOutside(uses, s.dir) {
				dead = append(dead, name)
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// receiverType returns the base type name of a method receiver, through a
// pointer and any type parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
