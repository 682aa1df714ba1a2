package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural core of the suite: a whole-program call
// graph over every loaded package with one summary per function, plus the
// fixed-point propagation the detflow/ctxflow/hotalloc analyzers query.
//
// The single-function analyzers (floateq, opcodeswitch, ...) inspect one
// package at a time; the summary engine instead reasons about paths that
// cross package boundaries — experiments → campaign → dta — the way
// FastFlip composes per-section injection results into whole-program
// outcomes. Summaries are collected in one AST pass per function and the
// propagation lattices are tiny (a boolean plus a witness edge), so
// whole-repo analysis stays in the tens of milliseconds.
//
// Two deliberate asymmetries, matching each analyzer's job:
//
//   - detflow UNDER-approximates through dynamic calls (interface methods,
//     func values do not propagate taint): it is a bug finder, and
//     assuming every dynamic call nondeterministic would drown real
//     source→sink paths in noise.
//   - hotalloc OVER-approximates (a dynamic or unsummarized call in a hot
//     path is itself a finding): it is a proof of allocation-freedom, and
//     a call it cannot see through is a hole in the proof.

// hotpathDirective marks a function whose transitive closure must be
// allocation-free (checked by the hotalloc analyzer).
const hotpathDirective = "teva:hotpath"

// CallKind classifies one call site for the summary consumers.
type CallKind uint8

const (
	// CallModule targets a function whose body the program has loaded
	// (summaries compose through it).
	CallModule CallKind = iota
	// CallExternal targets a function outside the loaded set (stdlib);
	// only name-based tables (sources, allowlists) apply.
	CallExternal
	// CallDynamic is an interface-method or func-value invocation: the
	// callee is unresolvable statically.
	CallDynamic
)

// Call is one resolved call site inside a function body.
type Call struct {
	Kind CallKind
	// Callee is the invoked function (its generic origin for instantiated
	// generics); nil for CallDynamic.
	Callee *types.Func
	// Site is the call expression (positions, arguments).
	Site *ast.CallExpr
	// Desc names the target for reporting ("timingsim.Runner.Run",
	// "func value f", "fmt.Sprintf").
	Desc string
	// InPanic is true when the call sits inside a panic(...) argument —
	// the failure path is exempt from hot-closure propagation and the
	// allocation proof (it runs at most once per crash).
	InPanic bool
}

// SourceUse is one direct nondeterminism source inside a function.
type SourceUse struct {
	Node ast.Node
	// Desc names the source ("calls time.Now", "appends in map-iteration
	// order (unsorted)", ...).
	Desc string
	// MapRange marks an order-dependent effect inside a map range, which
	// detflow reports where it occurs, sink or no sink.
	MapRange bool
}

// AllocSite is one direct allocation (or unprovable construct) inside a
// function, for the hotalloc proof.
type AllocSite struct {
	Node ast.Node
	Desc string
}

// FuncInfo is the per-function summary.
type FuncInfo struct {
	Obj  *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl

	// Calls lists every call site in source order (nested literals
	// included — a closure body executes on behalf of its creator).
	Calls []Call
	// Sources are the function's direct nondeterminism sources.
	Sources []SourceUse
	// Allocs are the function's direct allocation sites.
	Allocs []AllocSite
	// Hotpath is true when the declaration carries //teva:hotpath.
	Hotpath bool
	// CtxParams holds the function's context.Context parameter objects.
	CtxParams []*types.Var
	// DefaultsCtx is true when the body calls context.Background() or
	// context.TODO() directly.
	DefaultsCtx bool

	// Computed by Resolve:

	// Taint, when non-nil, witnesses that the function (transitively)
	// reaches a nondeterminism source.
	Taint *Witness
	// HotFrom, when non-nil, names the //teva:hotpath root that makes this
	// function part of a hot closure.
	HotFrom *FuncInfo
	// HotVia is the call chain (exclusive of self) from HotFrom here.
	HotVia []*FuncInfo
	// CtxDefaulting, when non-nil, witnesses that this ctx-less function
	// transitively reaches a context.Background()/TODO() call through
	// ctx-less module functions only.
	CtxDefaulting *Witness
}

// Witness is one step of an interprocedural evidence chain: either a
// terminal fact observed directly in the function, or a call edge into the
// next function on the path.
type Witness struct {
	// Desc describes the terminal fact ("calls time.Now") when Via is nil,
	// or is empty for pure forwarding steps.
	Desc string
	// Pos locates the evidence (the source use or the call site).
	Pos token.Position
	// Via is the next function on the path (nil at the chain's end).
	Via *FuncInfo
}

// Chain renders the full evidence path starting at fn: "a → b: calls
// time.Now (file:line)".
func (f *FuncInfo) chain(w *Witness) string {
	var parts []string
	cur := f
	for w != nil {
		if w.Via == nil {
			return fmt.Sprintf("%s%s %s (%s:%d)", strings.Join(parts, ""), cur.Display(), w.Desc, shortFile(w.Pos.Filename), w.Pos.Line)
		}
		parts = append(parts, cur.Display()+" → ")
		cur = w.Via
		w = cur.Taint
		if len(parts) > 8 { // defensive bound; chains are acyclic in practice
			break
		}
	}
	return strings.Join(parts, "") + cur.Display()
}

// ctxChain renders the ctx-defaulting evidence path starting at fn.
func (f *FuncInfo) ctxChain(w *Witness) string {
	var parts []string
	cur := f
	for w != nil {
		if w.Via == nil {
			return fmt.Sprintf("%s%s %s", strings.Join(parts, ""), cur.Display(), w.Desc)
		}
		parts = append(parts, cur.Display()+" → ")
		cur = w.Via
		w = cur.CtxDefaulting
		if len(parts) > 8 {
			break
		}
	}
	return strings.Join(parts, "") + cur.Display()
}

// Display is the function's compact report name: "dta.AnalyzeStream" or
// "sta.passes.forward".
func (f *FuncInfo) Display() string { return displayFunc(f.Obj) }

func displayFunc(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
		if i := strings.LastIndex(pkg, "/"); i >= 0 {
			pkg = pkg[i+1:]
		}
		pkg += "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkg + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// shortFile trims a file path to its last two segments for chain rendering.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) <= 2 {
		return path
	}
	return strings.Join(parts[len(parts)-2:], "/")
}

// Program is the whole-repo summary database shared by the
// interprocedural analyzers.
type Program struct {
	// Funcs maps each loaded function (generic origin) to its summary.
	Funcs map[*types.Func]*FuncInfo
	// order is the deterministic iteration order (package path, then
	// source position) every fixed point runs in, so witness chains are
	// byte-identical across runs and loader parallelism.
	order []*FuncInfo
}

// BuildProgram collects summaries for every function of the given packages
// and resolves the interprocedural fixed points. The packages are
// typically Loader.Loaded() — every package the driver touched, imports
// included — so cross-package chains compose fully.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Funcs: make(map[*types.Func]*FuncInfo)}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, p := range sorted {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := collectFunc(p, fd, obj)
				prog.Funcs[obj] = fi
				prog.order = append(prog.order, fi)
			}
		}
	}
	prog.resolve()
	return prog
}

// info returns the summary for a callee, resolving generic instantiations
// to their origin declaration.
func (prog *Program) info(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return prog.Funcs[fn.Origin()]
}

// collectFunc builds one function's summary in a single AST pass.
func collectFunc(p *Package, fd *ast.FuncDecl, obj *types.Func) *FuncInfo {
	fi := &FuncInfo{Obj: obj, Pkg: p, Decl: fd}
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), hotpathDirective) {
				fi.Hotpath = true
			}
		}
	}
	if sig, ok := obj.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			if v := sig.Params().At(i); isContextType(v.Type()) {
				fi.CtxParams = append(fi.CtxParams, v)
			}
		}
	}
	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			call := resolveCall(p, n)
			call.InPanic = underPanic(p, stack)
			fi.Calls = append(fi.Calls, call)
			if src := sourceCall(call); src != "" {
				fi.Sources = append(fi.Sources, SourceUse{Node: n, Desc: src})
			}
			if call.Callee != nil && call.Callee.Pkg() != nil &&
				call.Callee.Pkg().Path() == "context" &&
				(call.Callee.Name() == "Background" || call.Callee.Name() == "TODO") {
				fi.DefaultsCtx = true
			}
		case *ast.RangeStmt:
			scope := fd.Body
			if lit := enclosingFunc(stack); lit != nil {
				scope = funcBody(lit)
			}
			collectRangeSources(p, fd.Body, scope, n, fi)
		}
	})
	collectAllocs(p, fd.Body, fi)
	return fi
}

// resolveCall classifies one call expression.
func resolveCall(p *Package, call *ast.CallExpr) Call {
	c := Call{Site: call, Kind: CallDynamic, Desc: "func value"}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[fun].(type) {
		case *types.Func:
			return classifyStatic(p, call, obj)
		case *types.Builtin:
			return Call{Site: call, Kind: CallExternal, Desc: "builtin " + fun.Name,
				Callee: nil}
		case *types.TypeName:
			// Type conversion, handled by the alloc collector.
			return Call{Site: call, Kind: CallExternal, Desc: "conversion"}
		}
		if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
			return Call{Site: call, Kind: CallExternal, Desc: "conversion"}
		}
		c.Desc = "func value " + fun.Name
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if recvIsInterface(fn) {
					return Call{Site: call, Kind: CallDynamic, Callee: fn,
						Desc: "dynamic dispatch " + displayFunc(fn)}
				}
				return classifyStatic(p, call, fn)
			}
			c.Desc = "func-valued field " + fun.Sel.Name
			return c
		}
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return classifyStatic(p, call, fn)
		}
		if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
			return Call{Site: call, Kind: CallExternal, Desc: "conversion"}
		}
		c.Desc = "func value " + fun.Sel.Name
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			if fn, ok := p.Info.Uses[id].(*types.Func); ok {
				return classifyStatic(p, call, fn)
			}
		}
	case *ast.IndexListExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if fn, ok := p.Info.Uses[id].(*types.Func); ok {
				return classifyStatic(p, call, fn)
			}
		}
	case *ast.FuncLit:
		// Immediately invoked literal: its body was already walked as part
		// of this function, so the call itself is a no-op edge.
		return Call{Site: call, Kind: CallExternal, Desc: "inline literal"}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StarExpr:
		return Call{Site: call, Kind: CallExternal, Desc: "conversion"}
	}
	return c
}

// classifyStatic builds the edge for a statically resolved function.
// Module-vs-external is decided later by the Program (whether the origin
// has a summary), so here both get the callee attached.
func classifyStatic(p *Package, call *ast.CallExpr, fn *types.Func) Call {
	return Call{Site: call, Kind: CallModule, Callee: fn.Origin(), Desc: displayFunc(fn)}
}

// recvIsInterface reports whether fn is declared on an interface type
// (dynamic dispatch at every call site).
func recvIsInterface(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// nondetSources is the one table of direct nondeterminism sources:
// wall-clock reads, environment reads, and the global (unseeded) math/rand
// streams. detflow taints every value computed from them and, inside
// simulation packages, reports each use where it occurs — the named call,
// or the import line for a package whose every function is a source.
var nondetSources = map[string]map[string]bool{
	"time":         {"Now": true, "Since": true, "Until": true},
	"os":           {"Getenv": true, "LookupEnv": true, "Environ": true},
	"math/rand":    nil, // nil: every function in the package
	"math/rand/v2": nil,
}

// sourceCall returns the source description when the call targets a
// nondeterminism source, else "".
func sourceCall(c Call) string {
	if c.Callee == nil || c.Callee.Pkg() == nil {
		return ""
	}
	names, ok := nondetSources[c.Callee.Pkg().Path()]
	if !ok {
		return ""
	}
	if names == nil || names[c.Callee.Name()] {
		return "calls " + c.Callee.Pkg().Path() + "." + c.Callee.Name()
	}
	return ""
}

// collectRangeSources records the order-dependent effects of one range
// statement as sources. Inside a map range those are unsorted appends,
// writes to an output sink and float accumulation (+= -= *= /=, whose
// rounding depends on summation order); detflow reports each where it
// occurs. Integer accumulation and map-to-map counting commute and are
// not recorded. scope is the innermost function body around the range,
// where a later sort clears an append (the collect-then-sort idiom).
// Inside a channel range, appends collect goroutine results in completion
// order — nondeterministic only when several goroutines feed the channel,
// which the declaration body launching goroutines approximates.
func collectRangeSources(p *Package, body, scope *ast.BlockStmt, rs *ast.RangeStmt, fi *FuncInfo) {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		record := func(n ast.Node, desc string) {
			fi.Sources = append(fi.Sources, SourceUse{Node: n, Desc: desc, MapRange: true})
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				return !isMap(p, n.X) // a nested map range records its own
			case *ast.AssignStmt:
				switch n.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
					for _, lhs := range n.Lhs {
						if t := p.Info.TypeOf(lhs); t != nil && isFloat(t) {
							record(n, "accumulates floats in map-iteration order (the rounded result depends on it)")
						}
					}
				}
			case *ast.CallExpr:
				if isBuiltin(p, n, "append") && len(n.Args) > 0 {
					if target := rootIdent(n.Args[0]); target != nil && !sortedLater(p, scope, target) {
						record(n, "appends in map-iteration order (unsorted)")
					}
				}
				if isEmissionCall(p, n) {
					record(n, "writes output in map-iteration order")
				}
			}
			return true
		})
	case *types.Chan:
		if !launchesGoroutine(body) {
			return
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok && isBuiltin(p, call, "append") {
				fi.Sources = append(fi.Sources, SourceUse{Node: call,
					Desc: "collects goroutine results in channel-completion order"})
				return false
			}
			return true
		})
	}
}

// isMap reports whether e is of map type.
func isMap(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortedLater reports whether the function body passes the appended slice
// to a sort call.
func sortedLater(p *Package, scope *ast.BlockStmt, target *ast.Ident) bool {
	obj := p.Info.Uses[target]
	if obj == nil {
		obj = p.Info.Defs[target]
	}
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted || !isSortCall(p, call) {
			return !sorted
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil && p.Info.Uses[root] == obj {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// sorters are the standard-library functions that reorder their slice
// argument. Searches and IsSorted checks read a slice without sorting it.
var sorters = map[string]map[string]bool{
	"sort":   {"Sort": true, "Stable": true, "Strings": true, "Ints": true, "Float64s": true, "Slice": true, "SliceStable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// isSortCall recognizes the standard sorters and local helpers whose name
// starts with "sort" (the repo's sortInts/sortedKeys style).
func isSortCall(p *Package, call *ast.CallExpr) bool {
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok { // generic instantiation, e.g. sortSlice[int](xs)
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.SelectorExpr:
		obj := p.Info.Uses[fun.Sel]
		return obj != nil && obj.Pkg() != nil && sorters[obj.Pkg().Path()][fun.Sel.Name]
	case *ast.Ident:
		return strings.HasPrefix(strings.ToLower(fun.Name), "sort")
	}
	return false
}

// emissionMethods are method names treated as ordered output sinks.
var emissionMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteAll": true, "Encode": true, "Print": true, "Printf": true, "Println": true,
}

// isEmissionCall recognizes ordered-output calls: fmt print functions
// and Write/Encode-style methods.
func isEmissionCall(p *Package, call *ast.CallExpr) bool {
	if pkgFunc(p, call, "fmt", "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println") {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !emissionMethods[sel.Sel.Name] {
		return false
	}
	// Only method calls (a receiver selection), not package-qualified
	// functions from arbitrary packages.
	_, isMethod := p.Info.Selections[sel]
	return isMethod
}

// launchesGoroutine reports whether the body contains any go statement.
func launchesGoroutine(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// resolve runs the interprocedural fixed points in deterministic order.
func (prog *Program) resolve() {
	prog.resolveTaint()
	prog.resolveHot()
	prog.resolveCtxDefaulting()
}

// resolveTaint computes the transitive nondeterminism taint: a function is
// tainted when it uses a source directly or calls a tainted module
// function. Dynamic calls do not propagate (see the file comment).
func (prog *Program) resolveTaint() {
	for _, fi := range prog.order {
		if len(fi.Sources) > 0 {
			s := fi.Sources[0]
			fi.Taint = &Witness{Desc: s.Desc, Pos: fi.Pkg.posn(s.Node)}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.order {
			if fi.Taint != nil {
				continue
			}
			for _, c := range fi.Calls {
				callee := prog.info(c.Callee)
				if callee == nil || callee.Taint == nil {
					continue
				}
				fi.Taint = &Witness{Pos: fi.Pkg.posn(c.Site), Via: callee}
				changed = true
				break
			}
		}
	}
}

// resolveHot computes the hot closure: every function reachable from a
// //teva:hotpath root through statically resolved module calls.
func (prog *Program) resolveHot() {
	var queue []*FuncInfo
	for _, fi := range prog.order {
		if fi.Hotpath {
			fi.HotFrom = fi
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, c := range fi.Calls {
			if c.InPanic {
				continue // crash-path callees are not hot
			}
			callee := prog.info(c.Callee)
			if callee == nil || callee.HotFrom != nil {
				continue
			}
			callee.HotFrom = fi.HotFrom
			callee.HotVia = append(append([]*FuncInfo(nil), fi.HotVia...), fi)
			queue = append(queue, callee)
		}
	}
}

// resolveCtxDefaulting marks ctx-less module functions that reach a
// context.Background()/TODO() call through ctx-less module functions only:
// calling one from a context-threaded function silently severs the
// cancellation chain (ctxflow reports those call sites).
func (prog *Program) resolveCtxDefaulting() {
	for _, fi := range prog.order {
		if len(fi.CtxParams) == 0 && fi.DefaultsCtx {
			fi.CtxDefaulting = &Witness{Desc: "calls context.Background()/TODO()"}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.order {
			if fi.CtxDefaulting != nil || len(fi.CtxParams) > 0 {
				continue
			}
			for _, c := range fi.Calls {
				callee := prog.info(c.Callee)
				if callee == nil || callee.CtxDefaulting == nil || len(callee.CtxParams) > 0 {
					continue
				}
				fi.CtxDefaulting = &Witness{Pos: fi.Pkg.posn(c.Site), Via: callee}
				changed = true
				break
			}
		}
	}
}

// program returns the package's whole-program summary database, building a
// single-package fallback when the driver did not attach one (fixture
// tests and direct RunAnalyzers callers attach the real thing).
func program(p *Package) *Program {
	if p.Prog == nil {
		p.Prog = BuildProgram([]*Package{p})
	}
	return p.Prog
}
