package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// PanicBarrier checks that every goroutine can neither kill the run nor
// outlive it.
//
// In the packages whose worker pools must survive a panicking task
// (panicBarrierPaths), every raw `go` statement is reported: goroutines
// there must be launched through guard.Go, whose recover barrier converts
// a worker panic into an error labeled with the work's identity. A raw
// goroutine that panics instead kills the whole process mid-matrix —
// exactly the failure mode the fault-tolerant pipeline exists to prevent.
// The STA level workers are under the same rule: a panic in a level chunk
// must surface as the analysis's own panic after the join, not as a
// process abort from an anonymous goroutine. So are the DTA stream shards:
// a panicking shard must reach AnalyzeStream's caller as an error.
//
// Everywhere else, a `go` statement is reported when its enclosing
// function has no join mechanism at all: no sync.WaitGroup.Add, no
// channel operation (send, receive, close, range-over-channel) and no Wait
// call. Such a goroutine cannot be waited for. The check is
// evidence-based, not a proof: a function that manipulates a WaitGroup or
// channels is assumed to join its goroutines (the race detector covers
// the rest).
func PanicBarrier() *Analyzer {
	return &Analyzer{
		Name: "panicbarrier",
		Doc:  "raw go statement where workers must route through guard.Go, or a go with no join in scope",
		Run:  runPanicBarrier,
	}
}

// panicBarrierPaths are the import-path fragments under the barrier
// requirement. internal/guard itself hosts the one legitimate raw `go`
// (inside guard.Go) and is exempt by not being listed.
var panicBarrierPaths = []string{
	"internal/experiments",
	"internal/campaign",
	"internal/sta",
	"internal/serve",
	"internal/shard",
	"internal/dta",
}

func runPanicBarrier(p *Package) []Finding {
	guarded := slices.ContainsFunc(panicBarrierPaths, func(frag string) bool {
		return strings.Contains(p.Path, frag)
	})
	var out []Finding
	for _, file := range p.Files {
		inspectWithStack(file, func(n ast.Node, stack []ast.Node) {
			gs, ok := n.(*ast.GoStmt)
			switch {
			case !ok:
			case guarded:
				out = append(out, p.finding("panicbarrier", gs,
					"raw go statement in a panic-barrier package: launch workers through guard.Go so a panic becomes a labeled per-cell error instead of killing the run"))
			case !hasJoinEvidence(p, funcBody(enclosingFunc(stack))):
				out = append(out, p.finding("panicbarrier", gs,
					"goroutine launched without a WaitGroup.Add or any channel join in the enclosing function"))
			}
		})
	}
	return out
}

// hasJoinEvidence scans a function body for any construct that could join
// or synchronize a goroutine.
func hasJoinEvidence(p *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			found = n.Op == token.ARROW
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(n.X); t != nil {
				_, found = t.Underlying().(*types.Chan)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Wait":
					found = true
				case "Add", "Done":
					found = isWaitGroup(p, sel.X)
				}
			}
			found = found || isBuiltin(p, n, "close")
		}
		return !found
	})
	return found
}

// isWaitGroup reports whether the expression is a sync.WaitGroup (or
// pointer to one).
func isWaitGroup(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
