package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// expect is one `// want <analyzer>` marker parsed from a fixture.
type expect struct {
	line     int
	analyzer string
}

func (e expect) String() string { return fmt.Sprintf("line %d: %s", e.line, e.analyzer) }

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	return NewLoader(root)
}

func loadFixture(t *testing.T, l *Loader, fixture, asPath string) *Package {
	t.Helper()
	dir := filepath.Join(l.Root, "internal", "lint", "testdata", fixture)
	p, err := l.CheckDir(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s as %s: %v", fixture, asPath, err)
	}
	return p
}

// wantMarkers scans the fixture's comments for `// want <analyzer>`
// expectations.
func wantMarkers(p *Package) []expect {
	var out []expect
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				for _, an := range strings.Fields(strings.TrimPrefix(text, "want ")) {
					out = append(out, expect{line: line, analyzer: an})
				}
			}
		}
	}
	return out
}

func sortExpects(es []expect) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].line != es[j].line {
			return es[i].line < es[j].line
		}
		return es[i].analyzer < es[j].analyzer
	})
}

// checkFixture asserts that the analyzer suite reports exactly the marked
// lines of the fixture — true positives fire, true negatives stay silent,
// and //teva:allow-suppressed lines are filtered by the driver.
func checkFixture(t *testing.T, p *Package) {
	t.Helper()
	checkFixtureWith(t, p, All())
}

// checkFixtureWith is checkFixture restricted to an analyzer subset —
// interprocedural fixtures deliberately contain violations of other
// analyzers (a detflow fixture is full of time.Now calls simpurity would
// also flag), so their markers describe a single analyzer's output.
func checkFixtureWith(t *testing.T, p *Package, analyzers []*Analyzer) {
	t.Helper()
	want := wantMarkers(p)
	var got []expect
	for _, f := range RunAnalyzers(p, analyzers) {
		got = append(got, expect{line: f.Line, analyzer: f.Analyzer})
	}
	sortExpects(want)
	sortExpects(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("findings mismatch for %s\n got: %v\nwant: %v", p.Path, got, want)
		for _, f := range RunAnalyzers(p, analyzers) {
			t.Logf("  finding: %s", f)
		}
	}
}

func TestGoldenFixtures(t *testing.T) {
	cases := []struct {
		fixture string
		asPath  string
	}{
		// maporder, floateq and goroutinehygiene are path-independent;
		// simpurity must be loaded under an internal/ path for its
		// positives to fire; opcodeswitch needs the real cell import.
		{"maporder", "teva/internal/lintfixture/maporder"},
		{"opcodeswitch", "teva/internal/lintfixture/opcodeswitch"},
		{"simpurity", "teva/internal/lintfixture/simpurity"},
		{"floateq", "teva/internal/lintfixture/floateq"},
		{"goroutine", "teva/internal/lintfixture/goroutine"},
		{"obsnames", "teva/internal/lintfixture/obsnames"},
		// panicbarrier is path-gated: positives fire only under the
		// guarded worker-pool packages.
		{"panicbarrier", "teva/internal/experiments/lintfixture"},
		// sampleretain needs the real timingsim import for its types.
		{"sampleretain", "teva/internal/lintfixture/sampleretain"},
	}
	l := newTestLoader(t)
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			checkFixture(t, loadFixture(t, l, tc.fixture, tc.asPath))
		})
	}
}

// TestInterproceduralFixtures runs each dataflow analyzer alone over its
// fixture: the markers are exact (true positives fire, the clean idioms
// and //teva:allow cases stay silent).
func TestInterproceduralFixtures(t *testing.T) {
	cases := []struct {
		fixture  string
		asPath   string
		analyzer *Analyzer
	}{
		// detflow's sinks are gated to internal/ packages.
		{"detflow", "teva/internal/lintfixture/detflow", DetFlow()},
		// ctxflow is gated to the cancellation-threaded packages.
		{"ctxflow", "teva/internal/campaign/lintfixture", CtxFlow()},
		// hotalloc keys off //teva:hotpath, not the import path.
		{"hotalloc", "teva/internal/lintfixture/hotalloc", HotAlloc()},
	}
	l := newTestLoader(t)
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			p := loadFixture(t, l, tc.fixture, tc.asPath)
			checkFixtureWith(t, p, []*Analyzer{tc.analyzer})
		})
	}
}

// TestInterproceduralPathGates loads the gated dataflow fixtures under
// exempt import paths: every marker line must stay silent.
func TestInterproceduralPathGates(t *testing.T) {
	l := newTestLoader(t)
	cases := []struct {
		fixture  string
		asPath   string
		analyzer *Analyzer
	}{
		// cmd/ binaries own their progress output.
		{"detflow", "teva/cmd/lintfixture", DetFlow()},
		// ctxflow fires only inside the threaded packages.
		{"ctxflow", "teva/internal/lintfixture/ctxflow", CtxFlow()},
	}
	for _, tc := range cases {
		t.Run(tc.fixture+"/"+tc.asPath, func(t *testing.T) {
			p := loadFixture(t, l, tc.fixture, tc.asPath)
			if got := RunAnalyzers(p, []*Analyzer{tc.analyzer}); len(got) != 0 {
				t.Errorf("%s under exempt path %s: want 0 findings, got %d: %v",
					tc.analyzer.Name, tc.asPath, len(got), got)
			}
		})
	}
}

// TestHotClosureCrossesPackages asserts the summary engine's whole-repo
// reach: the //teva:hotpath root on dta.Analyzer.AnalyzeBatch must pull
// logicsim.WideSim.Outputs (called by goldenBatch two packages away) into
// the hot closure.
func TestHotClosureCrossesPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks several packages; skipped in -short")
	}
	l := newTestLoader(t)
	if _, err := l.LoadDir(filepath.Join(l.Root, "internal", "dta")); err != nil {
		t.Fatalf("loading internal/dta: %v", err)
	}
	prog := BuildProgram(l.Loaded())
	var outputs *FuncInfo
	for _, fi := range prog.Funcs {
		if fi.Display() == "logicsim.WideSim.Outputs" {
			outputs = fi
		}
	}
	if outputs == nil {
		t.Fatal("no summary for logicsim.WideSim.Outputs")
	}
	if outputs.HotFrom == nil {
		t.Fatal("logicsim.WideSim.Outputs is not in any hot closure; want root dta.Analyzer.AnalyzeBatch")
	}
	if got := outputs.HotFrom.Display(); got != "dta.Analyzer.AnalyzeBatch" {
		t.Errorf("hot root = %s, want dta.Analyzer.AnalyzeBatch", got)
	}
}

// TestSortFindingsDedupe covers the stable-output contract: exact
// duplicates (a file reaching the driver through two package variants)
// collapse, and order is (file, line, col, analyzer, message) regardless
// of input order.
func TestSortFindingsDedupe(t *testing.T) {
	a := Finding{Analyzer: "x", File: "a.go", Line: 3, Col: 1, Message: "m"}
	b := Finding{Analyzer: "x", File: "a.go", Line: 3, Col: 1, Message: "n"}
	c := Finding{Analyzer: "w", File: "a.go", Line: 3, Col: 1, Message: "m"}
	d := Finding{Analyzer: "x", File: "b.go", Line: 1, Col: 1, Message: "m"}
	got := SortFindings([]Finding{d, b, a, c, a, d, b})
	want := []Finding{c, a, b, d}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("SortFindings:\n got: %v\nwant: %v", got, want)
	}
}

// TestSimPurityAllowlist loads the simpurity fixture under exempt import
// paths: cmd/ binaries and internal/prng may read clocks, env and
// math/rand, so the same file that produces five findings under internal/
// must produce none here.
func TestSimPurityAllowlist(t *testing.T) {
	for _, asPath := range []string{
		"teva/cmd/lintfixture",
		"teva/internal/prng/lintfixture",
	} {
		t.Run(asPath, func(t *testing.T) {
			l := newTestLoader(t)
			p := loadFixture(t, l, "simpurity", asPath)
			if got := RunAnalyzers(p, []*Analyzer{SimPurity()}); len(got) != 0 {
				t.Errorf("simpurity under exempt path %s: want 0 findings, got %d: %v", asPath, len(got), got)
			}
		})
	}
}

// TestPanicBarrierPathGate loads the panicbarrier fixture under paths
// outside the guarded worker-pool packages: the same raw go statements
// that fire under internal/experiments must stay silent everywhere else
// (and under internal/campaign or internal/dta they must fire again).
func TestPanicBarrierPathGate(t *testing.T) {
	l := newTestLoader(t)
	for asPath, wantFindings := range map[string]int{
		"teva/internal/power/lintfixture":    0,
		"teva/internal/dta/lintfixture":      2,
		"teva/internal/campaign/lintfixture": 2,
		"teva/internal/sta/lintfixture":      2,
		"teva/internal/shard/lintfixture":    2,
	} {
		t.Run(asPath, func(t *testing.T) {
			p := loadFixture(t, l, "panicbarrier", asPath)
			got := RunAnalyzers(p, []*Analyzer{PanicBarrier()})
			if len(got) != wantFindings {
				t.Errorf("panicbarrier under %s: want %d findings, got %d: %v",
					asPath, wantFindings, len(got), got)
			}
		})
	}
}

// TestAllowDirectiveParsing unit-tests the suppression machinery: multiple
// analyzers per directive, justification stripping, and the
// line-plus-next coverage window.
func TestAllowDirectiveParsing(t *testing.T) {
	src := `package x

func f() {
	_ = 1 //teva:allow floateq maporder -- both silenced here
	_ = 2
	_ = 3
	//teva:allow simpurity
	_ = 4
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	a := buildAllows(&Package{Fset: fset, Files: []*ast.File{f}})

	tests := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "floateq", true},    // directive's own line
		{4, "maporder", true},   // second analyzer in one directive
		{5, "floateq", true},    // next line is covered too
		{6, "floateq", false},   // two lines below is not
		{4, "simpurity", false}, /* other analyzers stay live */
		{7, "simpurity", true},  // preceding-line placement, own line
		{8, "simpurity", true},  // preceding-line placement, next line
	}
	for _, tc := range tests {
		got := a.allowed(Finding{File: "allow.go", Line: tc.line, Analyzer: tc.analyzer})
		if got != tc.want {
			t.Errorf("allowed(line %d, %s) = %v, want %v", tc.line, tc.analyzer, got, tc.want)
		}
	}
}

// TestExpandSkipsTestdata ensures the driver never loads analyzer fixtures
// (which contain deliberate violations) when expanding ./... patterns.
func TestExpandSkipsTestdata(t *testing.T) {
	l := newTestLoader(t)
	dirs, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("Expand(./...) returned no package directories")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand(./...) included fixture directory %s", d)
		}
	}
}

// TestRepoIsClean runs the full analyzer suite over every package of the
// module — the in-test twin of the `teva-vet ./...` CI gate. Any new
// unsuppressed violation of a determinism/exhaustiveness/concurrency
// invariant fails this test.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l := newTestLoader(t)
	dirs, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll(dirs, 8)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	// Mirror the CLI: one summary database over everything loaded, so the
	// interprocedural analyzers see cross-package chains.
	prog := BuildProgram(l.Loaded())
	for _, p := range pkgs {
		p.Prog = prog
		for _, f := range RunAnalyzers(p, All()) {
			t.Errorf("%s", l.RelFile(f))
		}
	}
}
