package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// DetFlow is the determinism analyzer. The byte-identical output
// guarantee (DESIGN.md) holds only if every value written to persisted or
// compared output is a pure function of inputs and seeds, and it enforces
// that three ways:
//
//   - Source uses. Inside the simulation packages (teva/internal/...,
//     except the seedable internal/prng itself) every wall-clock read,
//     environment read and math/rand import is reported where it occurs,
//     package-level initializers included.
//   - Map-range order. In every package, an unsorted append, a write to
//     an output sink or a float accumulation inside a map range is
//     reported where it occurs; the collect-keys-then-sort idiom is clean.
//   - Source→sink flow. Inside teva/internal/..., a path from any of those
//     sources (or goroutine completion order) into artifact payloads, CSV
//     and stdout/report writers, or obs metric updates is reported.
//     Function summaries make the check whole-repo: a sink argument
//     computed by experiments code that (through campaign and dta) ends
//     in time.Now is reported with the full call chain as a witness.
//
// cmd/ binaries are exempt from the first and third rules — progress logs
// and exit summaries legitimately read the clock; the experiment data they
// orchestrate must not.
func DetFlow() *Analyzer {
	return &Analyzer{
		Name: "detflow",
		Doc:  "clock/env/rand reads in sim packages, map-range order, and nondeterministic values reaching output",
		Run:  runDetFlow,
	}
}

// detSink describes one determinism sink: which arguments carry data that
// must be deterministic.
type detSink struct {
	desc string
	// firstArg is the index of the first data argument (1 skips an
	// io.Writer or key argument).
	firstArg int
}

// sinkFor classifies a resolved call as a determinism sink, or returns
// nil. The table deliberately names concrete write paths rather than all
// of io: a tainted value is only a determinism bug once it reaches
// persisted or compared output.
func sinkFor(c Call) *detSink {
	if c.Callee == nil || c.Callee.Pkg() == nil {
		return nil
	}
	pkg, name := c.Callee.Pkg().Path(), c.Callee.Name()
	switch pkg {
	case "teva/internal/artifact":
		if name == "Save" {
			return &detSink{desc: "artifact payload", firstArg: 1}
		}
	case "encoding/csv":
		if name == "Write" || name == "WriteAll" {
			return &detSink{desc: "CSV output", firstArg: 0}
		}
	case "fmt":
		switch name {
		case "Fprint", "Fprintf", "Fprintln":
			return &detSink{desc: "report writer", firstArg: 1}
		case "Print", "Printf", "Println":
			return &detSink{desc: "stdout", firstArg: 0}
		}
	case "teva/internal/obs":
		switch name {
		case "Add", "Set", "Observe":
			return &detSink{desc: "obs metric", firstArg: 0}
		}
	}
	return nil
}

func runDetFlow(p *Package) []Finding {
	// Only experiment-side packages carry the source and flow rules; cmd/
	// binaries own their progress output.
	sim := strings.HasPrefix(p.Path, "teva/internal/")
	var out []Finding
	if sim && !strings.Contains(p.Path+"/", "internal/prng/") {
		out = sourceUses(p)
	}
	prog := program(p)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := p.Info.Defs[fd.Name].(*types.Func)
			fi := prog.info(obj)
			if fi == nil {
				continue
			}
			for _, s := range fi.Sources {
				if s.MapRange {
					out = append(out, p.finding("detflow", s.Node, "%s; iterate sorted keys, or collect and sort", s.Desc))
				}
			}
			if sim {
				out = append(out, detFlowFunc(p, prog, fi)...)
			}
		}
	}
	return out
}

// sourceUses reports every direct source use in the package's files: a
// call the nondetSources table names, or the import of a package whose
// every function is a source (its call sites are not reported again).
func sourceUses(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if names, ok := nondetSources[path]; err == nil && ok && names == nil {
				out = append(out, p.finding("detflow", imp,
					"import of %s in a simulation package; use the seedable internal/prng instead", path))
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			c := resolveCall(p, call)
			if src := sourceCall(c); src != "" && nondetSources[c.Callee.Pkg().Path()] != nil {
				out = append(out, p.finding("detflow", call,
					"simulation package %s, which makes runs depend on the host; pass the value in explicitly", src))
			}
			return true
		})
	}
	return out
}

// detFlowFunc checks one function: taint local variables from their
// assignments (flow-insensitive fixed point), then test every sink
// argument for a tainted subexpression.
func detFlowFunc(p *Package, prog *Program, fi *FuncInfo) []Finding {
	tainted := taintedVars(p, prog, fi)
	var out []Finding
	for _, c := range fi.Calls {
		sink := sinkFor(c)
		if sink == nil {
			continue
		}
		args := c.Site.Args
		if sink.firstArg >= len(args) {
			continue
		}
		for _, arg := range args[sink.firstArg:] {
			if reason := exprTaint(p, prog, tainted, arg); reason != "" {
				out = append(out, p.finding("detflow", arg,
					"nondeterministic value reaches %s: %s", sink.desc, reason))
			}
		}
	}
	return out
}

// taintedVars computes the function's tainted local variables: objects
// assigned (directly or transitively) from a nondeterminism source or a
// tainted callee. Flow-insensitive — an assignment anywhere in the body
// taints the variable everywhere — which over-approximates re-assigned
// variables but never misses a flow.
func taintedVars(p *Package, prog *Program, fi *FuncInfo) map[types.Object]string {
	tv := make(map[types.Object]string)
	mark := func(e ast.Expr, reason string) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return false
		}
		if _, done := tv[obj]; done {
			return false
		}
		tv[obj] = reason
		return true
	}
	// Seed: a slice appended in map-iteration or channel-completion order
	// (the function's structural sources) is tainted from birth.
	for _, s := range fi.Sources {
		call, ok := s.Node.(*ast.CallExpr)
		if !ok || !isBuiltin(p, call, "append") || len(call.Args) == 0 {
			continue
		}
		if target := rootIdent(call.Args[0]); target != nil {
			mark(target, s.Desc)
		}
	}
	// len(body assignments) bounds the chain length; 64 rounds is far past
	// any real function and keeps pathological fixtures terminating.
	for round := 0; round < 64; round++ {
		changed := false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					// v, err := f(): one tainted result taints all lhs.
					if reason := exprTaint(p, prog, tv, n.Rhs[0]); reason != "" {
						for _, lhs := range n.Lhs {
							changed = mark(lhs, reason) || changed
						}
					}
					return true
				}
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					if reason := exprTaint(p, prog, tv, rhs); reason != "" {
						changed = mark(n.Lhs[i], reason) || changed
					}
				}
			case *ast.ValueSpec:
				if len(n.Values) == 1 && len(n.Names) > 1 {
					if reason := exprTaint(p, prog, tv, n.Values[0]); reason != "" {
						for _, name := range n.Names {
							changed = mark(name, reason) || changed
						}
					}
					return true
				}
				for i, v := range n.Values {
					if i >= len(n.Names) {
						break
					}
					if reason := exprTaint(p, prog, tv, v); reason != "" {
						changed = mark(n.Names[i], reason) || changed
					}
				}
			case *ast.RangeStmt:
				// Ranging over a tainted collection taints key and value.
				if reason := exprTaint(p, prog, tv, n.X); reason != "" {
					if n.Key != nil {
						changed = mark(n.Key, reason) || changed
					}
					if n.Value != nil {
						changed = mark(n.Value, reason) || changed
					}
				}
			}
			return true
		})
		if !changed {
			return tv
		}
	}
	return tv
}

// exprTaint reports why the expression is tainted ("" when clean): it
// contains a call to a nondeterminism source, a call to a transitively
// tainted module function, or a use of a tainted variable.
func exprTaint(p *Package, prog *Program, tv map[types.Object]string, e ast.Expr) string {
	reason := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			c := resolveCall(p, n)
			if src := sourceCall(c); src != "" {
				reason = src
				return false
			}
			if fi := prog.info(c.Callee); fi != nil && fi.Taint != nil {
				reason = fi.chain(fi.Taint)
				return false
			}
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil {
				if r, ok := tv[obj]; ok {
					reason = "tainted variable " + n.Name + " (" + r + ")"
					return false
				}
			}
		case *ast.FuncLit:
			// A literal's body runs when called, not when passed; its
			// sinks were already checked as part of the enclosing walk.
			return false
		}
		return true
	})
	return reason
}
