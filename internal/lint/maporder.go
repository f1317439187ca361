package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags order-sensitive work inside `for range m` over a map
// in determinism-critical packages: appending to a slice that is never
// deterministically sorted afterwards, writing directly to a sink
// (fmt printers, Write* methods, channel sends), or accumulating into a
// float declared outside the loop with +=, -= or *=. Go randomizes map
// iteration order per run, and float arithmetic is not associative, so
// each is a build-to-build diff waiting to happen. Integer aggregations
// (sums, max), writes into other maps, and the collect-then-sort idiom
// are all fine.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "forbid order-sensitive map iteration (append without a " +
		"subsequent sort, direct sink writes, or float accumulation) in " +
		"determinism-critical packages",
	Run: runMapOrder,
}

func runMapOrder(p *Pass) {
	if !isDeterminismCritical(p.Pkg.Path()) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			checkFuncMapOrder(p, body)
			return true
		})
	}
}

// checkFuncMapOrder examines every map-range loop directly inside fn
// (nested function literals are visited on their own by the caller's
// Inspect, with their own literal body as the sort-search scope).
func checkFuncMapOrder(p *Pass, fn *ast.BlockStmt) {
	ast.Inspect(fn, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != fn.Pos() {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(p, fn, rs)
		return true
	})
}

func checkMapRange(p *Pass, fn *ast.BlockStmt, rs *ast.RangeStmt) {
	reported := map[types.Object]bool{}
	sinkReported := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.SendStmt:
			if !sinkReported {
				sinkReported = true
				p.Reportf(rs.Pos(),
					"map iteration sends on a channel: map order is randomized per run; collect into a slice and sort first")
			}
			return true
		case *ast.AssignStmt:
			if stmt.Tok == token.ADD_ASSIGN || stmt.Tok == token.SUB_ASSIGN || stmt.Tok == token.MUL_ASSIGN {
				obj := assignTarget(p.Info, stmt.Lhs[0])
				if obj != nil && !reported[obj] && isFloat(obj.Type()) && !declaredWithin(obj, rs.Body) {
					reported[obj] = true
					p.Reportf(rs.Pos(),
						"map iteration accumulates float %q with %s: float arithmetic is not associative, so its low bits depend on the randomized map order; iterate sorted keys instead",
						obj.Name(), stmt.Tok)
				}
				return true
			}
			for i, rhs := range stmt.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p.Info, call) || i >= len(stmt.Lhs) {
					continue
				}
				obj := assignTarget(p.Info, stmt.Lhs[i])
				if obj == nil || reported[obj] {
					continue
				}
				if declaredWithin(obj, rs.Body) {
					continue
				}
				if sortedAfter(p, fn, rs, obj) {
					continue
				}
				reported[obj] = true
				p.Reportf(rs.Pos(),
					"map iteration appends to %q without a deterministic sort afterwards: map order is randomized per run, so %q's element order will differ build to build",
					obj.Name(), obj.Name())
			}
		case *ast.CallExpr:
			if name, ok := sinkCall(p.Info, stmt); ok && !sinkReported {
				sinkReported = true
				p.Reportf(rs.Pos(),
					"map iteration writes to a sink via %s: map order is randomized per run; collect into a slice, sort, then emit",
					name)
				return false
			}
		}
		return true
	})
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// assignTarget resolves an assignment LHS to the variable it writes:
// a plain identifier or a field selector. Index expressions and
// dereferences are out of scope.
func assignTarget(info *types.Info, lhs ast.Expr) types.Object {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// declaredWithin reports whether obj's declaration lies inside the
// given node's source range (loop-local slices reset each iteration are
// not order-sensitive across the whole map).
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj.Pos() != token.NoPos && n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

// sortedAfter reports whether, lexically after the range loop within
// the enclosing function body, some sort/slices call mentions obj.
func sortedAfter(p *Pass, fn *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		callee := calleeFunc(p.Info, call)
		if callee == nil {
			return true
		}
		switch pkgPathOf(callee) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				switch e := an.(type) {
				case *ast.Ident:
					if p.Info.Uses[e] == obj {
						found = true
					}
				case *ast.SelectorExpr:
					if p.Info.Uses[e.Sel] == obj {
						found = true
					}
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// sinkCall reports whether call writes loop data somewhere externally
// visible: the fmt print family (Sprint* is pure and exempt), any
// Write*-named method, or the print/println builtins.
func sinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "print" || b.Name() == "println") {
			return b.Name(), true
		}
	}
	callee := calleeFunc(info, call)
	if callee == nil {
		return "", false
	}
	name := callee.Name()
	if pkgPathOf(callee) == "fmt" && strings.HasPrefix(name, "Print") || pkgPathOf(callee) == "fmt" && strings.HasPrefix(name, "Fprint") {
		return "fmt." + name, true
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && strings.HasPrefix(name, "Write") {
		return name, true
	}
	return "", false
}
