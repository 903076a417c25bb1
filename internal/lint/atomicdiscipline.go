package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// atomicdiscipline enforces the shared-counter contract (DESIGN.md §14):
// any variable whose address is ever passed to a sync/atomic function is
// an atomic variable, and every other access to it must also go through
// sync/atomic. A single plain read or write next to atomic ones is a data
// race the race detector only catches when the interleaving happens to
// bite; the analyzer catches it statically. Plain access inside
// constructor-shaped functions (New*, Open*, init) is sanctioned: the
// variable is not yet published.
type atomicdiscipline struct{}

func (atomicdiscipline) Name() string { return "atomicdiscipline" }

func (atomicdiscipline) Doc() string {
	return "variables touched via sync/atomic must be accessed atomically everywhere"
}

// atomicInitRe matches constructor-shaped functions where plain access to
// an otherwise-atomic variable is sanctioned (single-threaded build-up
// before the value is published).
var atomicInitRe = regexp.MustCompile(`^(New|Open)|^init$`)

// Run flags plain reads/writes of variables that are elsewhere accessed
// through sync/atomic.
func (atomicdiscipline) Run(prog *Program) []Diagnostic {
	// Pass 1: collect every variable whose address feeds a sync/atomic
	// call, remembering the first such site (for the message) and the
	// position of each sanctioned use (the ident under the & argument).
	atomicAt := map[*types.Var]token.Position{}
	sanctioned := map[token.Pos]bool{}
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				// Only the package-level functions (atomic.AddInt64 & co)
				// take the atomic variable's address. A pointer handed to a
				// method-form atomic (p.Store(&m)) is payload, not the
				// atomic cell — the typed receiver already enforces its own
				// discipline.
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true
				}
				for _, arg := range call.Args {
					u, ok := arg.(*ast.UnaryExpr)
					if !ok || u.Op != token.AND {
						continue
					}
					id := baseIdent(u.X)
					if id == nil {
						continue
					}
					v, ok := info.Uses[id].(*types.Var)
					if !ok {
						continue
					}
					if _, seen := atomicAt[v]; !seen {
						atomicAt[v] = prog.Position(arg.Pos())
					}
					sanctioned[id.Pos()] = true
				}
				return true
			})
		}
	}
	if len(atomicAt) == 0 {
		return nil
	}

	// Pass 2: every other use of those variables is a mixed access.
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		eachFuncDecl(pkg, func(decl *ast.FuncDecl) {
			if atomicInitRe.MatchString(decl.Name.Name) {
				return // single-threaded construction
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || sanctioned[id.Pos()] {
					return true
				}
				v, ok := info.Uses[id].(*types.Var)
				if !ok {
					return true
				}
				at, ok := atomicAt[v]
				if !ok {
					return true
				}
				diags = append(diags, Diagnostic{"atomicdiscipline", prog.Position(id.Pos()),
					fmt.Sprintf("mixed access to %s: plain use races with the sync/atomic access at %s:%d; use atomic ops everywhere",
						v.Name(), at.Filename, at.Line)})
				return true
			})
		})
	}
	sortDiags(diags)
	return diags
}

// baseIdent returns the identifier a plain or selector expression
// ultimately names (x -> x, s.f -> f), or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.ParenExpr:
		return baseIdent(e.X)
	case *ast.IndexExpr:
		return baseIdent(e.X)
	}
	return nil
}

// calleeFunc resolves a call expression to the function or method it
// statically invokes, or nil (builtins, conversions, func values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.ParenExpr:
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X, Args: call.Args})
	}
	return nil
}
