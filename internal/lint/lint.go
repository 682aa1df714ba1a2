// Package lint is TEVA's in-repo static-analysis suite. It machine-checks
// the invariants the Go compiler cannot: the byte-for-byte reproducibility
// guarantee of the experiment pipeline (detflow: no unordered map
// iteration feeding ordered output, no unseeded randomness or wall-clock
// reads inside simulation packages, no nondeterministic value reaching a
// persisted or compared output), exhaustive opcode dispatch in every
// engine, no exact float equality outside approved comparators, and
// goroutines that are joined and, in the worker pools, panic-guarded
// (panicbarrier). The suite is built purely on the standard library
// (go/parser, go/ast, go/types) so the repo keeps its no-external-deps
// rule, and runs as `go run ./cmd/teva-vet ./...` (wired into CI).
//
// Findings can be suppressed case by case with a trailing or preceding
// comment:
//
//	//teva:allow <analyzer> [<analyzer>...]  -- optional justification
//
// which silences the named analyzers on that line and the next.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// File is the file path (relative to the module root when possible).
	File string
	// Line and Col locate the finding (1-based).
	Line int
	Col  int
	// Message describes the violated invariant.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one domain check over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in reports and //teva:allow comments.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Run reports the package's findings (unsuppressed; the driver
	// filters //teva:allow afterwards).
	Run func(p *Package) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		OpcodeSwitch(),
		FloatEq(),
		ObsNames(),
		PanicBarrier(),
		SampleRetain(),
		DetFlow(),
		CtxFlow(),
		HotAlloc(),
	}
}

// Package is a loaded, type-checked package handed to analyzers.
type Package struct {
	// Path is the import path ("teva/internal/dta").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions all files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
	// Prog is the whole-program summary database shared by the
	// interprocedural analyzers (detflow, ctxflow, hotalloc). Drivers set
	// it once via BuildProgram over every loaded package; when nil, the
	// analyzers fall back to a single-package program.
	Prog *Program
}

// posn converts a node position into a Finding location.
func (p *Package) posn(n ast.Node) token.Position { return p.Fset.Position(n.Pos()) }

// finding builds a Finding at a node.
func (p *Package) finding(an string, n ast.Node, format string, args ...any) Finding {
	pos := p.posn(n)
	return Finding{
		Analyzer: an,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// allowDirective is the suppression comment prefix.
const allowDirective = "teva:allow"

// allows maps file -> line -> analyzer names allowed on that line.
type allows map[string]map[int]map[string]bool

// buildAllows scans every comment of the package for //teva:allow
// directives. A directive covers its own line and the line after it, so
// both trailing and preceding placements work.
func buildAllows(p *Package) allows {
	a := make(allows)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, allowDirective)
				// Cut an optional trailing justification after "--".
				if i := strings.Index(rest, "--"); i >= 0 {
					rest = rest[:i]
				}
				pos := p.Fset.Position(c.Pos())
				byLine := a[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					a[pos.Filename] = byLine
				}
				for _, name := range strings.Fields(rest) {
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set := byLine[line]
						if set == nil {
							set = make(map[string]bool)
							byLine[line] = set
						}
						set[name] = true
					}
				}
			}
		}
	}
	return a
}

func (a allows) allowed(f Finding) bool {
	byLine := a[f.File]
	if byLine == nil {
		return false
	}
	return byLine[f.Line][f.Analyzer]
}

// RunAnalyzers applies the analyzers to the package and returns the
// surviving (unsuppressed) findings, deduplicated and in stable order.
func RunAnalyzers(p *Package, analyzers []*Analyzer) []Finding {
	sup := buildAllows(p)
	var out []Finding
	for _, an := range analyzers {
		for _, f := range an.Run(p) {
			if !sup.allowed(f) {
				out = append(out, f)
			}
		}
	}
	return SortFindings(out)
}

// SortFindings orders findings by (file, line, col, analyzer, message) and
// drops exact duplicates, so vet output is byte-identical regardless of
// loader parallelism or a file reaching the driver through more than one
// package variant. The slice is sorted in place and the (possibly shorter)
// deduplicated prefix returned.
func SortFindings(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Col != fs[j].Col {
			return fs[i].Col < fs[j].Col
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Message < fs[j].Message
	})
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// inspectWithStack walks the file like ast.Inspect while maintaining the
// ancestor stack (stack[len-1] is the current node's parent).
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the innermost function declaration or literal in
// the stack, or nil when the node is at file scope.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcBody returns the body of a node returned by enclosingFunc.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// isFloat reports whether t is (or is an alias/named wrapper of) a
// floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootIdent unwraps selectors/indexes/stars/parens down to the leftmost
// identifier: a.b[i].c -> a.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pkgFunc reports whether the call expression invokes pkgPath.name (via a
// plain or aliased package qualifier).
func pkgFunc(p *Package, call *ast.CallExpr, pkgPath string, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(p *Package, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Info.Uses[id].(*types.Builtin)
	return ok
}
