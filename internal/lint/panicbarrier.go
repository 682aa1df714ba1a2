package lint

import (
	"go/ast"
	"strings"
)

// PanicBarrier flags raw `go` statements in the packages whose worker
// pools are required to survive a panicking task (internal/experiments,
// internal/campaign and internal/sta): every goroutine there must be
// launched through guard.Go, whose recover barrier converts a worker
// panic into an error labeled with the work's identity. A raw goroutine
// that panics instead kills the whole process mid-matrix — exactly the
// failure mode the fault-tolerant pipeline exists to prevent. The STA
// level workers are under the same rule: a panic in a level chunk must
// surface as the analysis's own panic after the join, not as a process
// abort from an anonymous goroutine. So are the DTA stream shards: a
// panicking shard must reach AnalyzeStream's caller as an error.
func PanicBarrier() *Analyzer {
	return &Analyzer{
		Name: "panicbarrier",
		Doc:  "raw go statement where workers must route through guard.Go's recover barrier",
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
	guarded := false
	for _, frag := range panicBarrierPaths {
		if strings.Contains(p.Path, frag) {
			guarded = true
			break
		}
	}
	if !guarded {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				out = append(out, p.finding("panicbarrier", gs,
					"raw go statement in a panic-barrier package: launch workers through guard.Go so a panic becomes a labeled per-cell error instead of killing the run"))
			}
			return true
		})
	}
	return out
}
