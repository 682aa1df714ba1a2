package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow checks cancellation threading in the worker-pool packages: a
// function that receives a context.Context must keep that context (or a
// context derived from it) flowing into everything it calls. PR 5 threads
// cancellation CLI → experiments → core → campaign → dta so the first
// hard error or -max-duration stops all remaining work promptly; one
// function that conjures context.Background() on that path silently
// severs the chain, and nothing times out until a chaos test notices.
//
// Three rules, on functions with a ctx parameter in the gated packages:
//
//  1. Calling context.Background()/context.TODO() is flagged — derive
//     from the parameter instead.
//  2. Passing a context other than one derived from the parameter to a
//     ctx-accepting callee is flagged (derived = the parameter, anything
//     assigned from it, and context.With* over a derived context —
//     including the ctx, cancel := context.WithCancel(ctx) form).
//  3. Calling a module function that transitively defaults to
//     context.Background() — ctx-less wrappers around a ctx-taking form
//     — without handing it the context through any argument (spec
//     structs like campaign.Spec{Context: ctx} count) is flagged with
//     the defaulting chain as witness.
func CtxFlow() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "ctx-receiving functions in cancellation-threaded packages must forward their context",
		Run:  runCtxFlow,
	}
}

// ctxflowPkgs are the cancellation-threaded package roots (subpackages
// included).
var ctxflowPkgs = []string{
	"teva/internal/experiments",
	"teva/internal/campaign",
	"teva/internal/dta",
	"teva/internal/core",
	"teva/internal/sta",
	"teva/internal/serve",
	"teva/internal/shard",
}

func ctxflowGated(path string) bool {
	for _, root := range ctxflowPkgs {
		if path == root || strings.HasPrefix(path, root+"/") {
			return true
		}
	}
	return false
}

func runCtxFlow(p *Package) []Finding {
	if !ctxflowGated(p.Path) {
		return nil
	}
	prog := program(p)
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := p.Info.Defs[fd.Name].(*types.Func)
			fi := prog.info(obj)
			if fi == nil || len(fi.CtxParams) == 0 {
				continue
			}
			out = append(out, ctxFlowFunc(p, prog, fi)...)
		}
	}
	return out
}

func ctxFlowFunc(p *Package, prog *Program, fi *FuncInfo) []Finding {
	derived := derivedCtxs(p, fi)
	reseeds := nilGuardReseeds(p, fi, derived)
	var out []Finding
	for _, c := range fi.Calls {
		// Rule 1: fresh contexts on a threaded path. The nil-guard idiom
		// `if ctx == nil { ctx = context.Background() }` re-seeds the
		// derived parameter itself and stays legal.
		if isCtxDefault(c) && !reseeds[c.Site] {
			out = append(out, p.finding("ctxflow", c.Site,
				"context.%s() inside a ctx-receiving function severs the cancellation chain; derive from ctx instead",
				c.Callee.Name()))
			continue
		}
		argHasDerived := false
		for _, arg := range c.Site.Args {
			if containsDerived(p, derived, arg) {
				argHasDerived = true
				break
			}
		}
		// Rule 2: explicit Context arguments must be derived.
		for _, arg := range c.Site.Args {
			t := p.Info.TypeOf(arg)
			if t == nil || !isContextType(t) || containsDerived(p, derived, arg) {
				continue
			}
			if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok && isCtxDefault(resolveCall(p, inner)) {
				continue // the Background()/TODO() call itself is already flagged by rule 1
			}
			out = append(out, p.finding("ctxflow", arg,
				"call to %s passes a context not derived from the function's ctx parameter", c.Desc))
		}
		// Rule 3: ctx-less callees that default to Background().
		if callee := prog.info(c.Callee); callee != nil && callee.CtxDefaulting != nil &&
			len(callee.CtxParams) == 0 && !argHasDerived {
			out = append(out, p.finding("ctxflow", c.Site,
				"drops ctx: %s (forward ctx via its Ctx variant or a spec field)",
				callee.ctxChain(callee.CtxDefaulting)))
		}
	}
	return out
}

// nilGuardReseeds collects context.Background()/TODO() calls whose result
// is assigned straight onto an already-derived context variable — the
// defensive `if ctx == nil { ctx = context.Background() }` default. The
// chain is not severed: the variable keeps being the function's context.
func nilGuardReseeds(p *Package, fi *FuncInfo, derived map[types.Object]bool) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isCtxDefault(resolveCall(p, call)) {
			return true
		}
		if containsDerived(p, derived, as.Lhs[0]) {
			out[call] = true
		}
		return true
	})
	return out
}

// isCtxDefault reports whether the call is context.Background() or
// context.TODO().
func isCtxDefault(c Call) bool {
	return c.Callee != nil && c.Callee.Pkg() != nil && c.Callee.Pkg().Path() == "context" &&
		(c.Callee.Name() == "Background" || c.Callee.Name() == "TODO")
}

// derivedCtxs computes the function's derived-context objects: the ctx
// parameters, any Context-typed variable assigned from an expression
// containing a derived context (covers ctx2 := ctx and inner, cancel :=
// context.WithCancel(ctx)), and Context-typed parameters of nested
// function literals (the literal's caller owns that handoff).
func derivedCtxs(p *Package, fi *FuncInfo) map[types.Object]bool {
	derived := make(map[types.Object]bool, len(fi.CtxParams))
	for _, v := range fi.CtxParams {
		derived[v] = true
	}
	markIfCtx := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil || derived[obj] || !isContextType(obj.Type()) {
			return false
		}
		derived[obj] = true
		return true
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			for _, field := range fl.Type.Params.List {
				for _, name := range field.Names {
					if obj := p.Info.Defs[name]; obj != nil && isContextType(obj.Type()) {
						derived[obj] = true
					}
				}
			}
		}
		return true
	})
	for round := 0; round < 64; round++ {
		changed := false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// Both forms — inner := context.WithCancel-style multi-assign
			// and one-to-one — reduce to: a Context-typed lhs is derived
			// when any rhs contains a derived context.
			rhsDerived := false
			for _, rhs := range as.Rhs {
				if containsDerived(p, derived, rhs) {
					rhsDerived = true
					break
				}
			}
			if !rhsDerived {
				return true
			}
			for _, lhs := range as.Lhs {
				changed = markIfCtx(lhs) || changed
			}
			return true
		})
		if !changed {
			break
		}
	}
	return derived
}

// containsDerived reports whether the expression's subtree uses a derived
// context object (a bare derived ident, context.WithTimeout(ctx, d), or a
// spec literal with a Context: ctx field).
func containsDerived(p *Package, derived map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := p.Info.Uses[id]
			if obj == nil {
				obj = p.Info.Defs[id]
			}
			if obj != nil && derived[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
