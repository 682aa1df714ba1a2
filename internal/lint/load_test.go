package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeFiles materializes a package directory in a temp dir.
func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadSyntaxError: a package with a parse error must produce an error
// naming the package, never a panic or a silently skipped file.
func TestLoadSyntaxError(t *testing.T) {
	dir := writeFiles(t, map[string]string{
		"bad.go": "package bad\n\nfunc broken( {\n",
	})
	l := newTestLoader(t)
	_, err := l.CheckDir(dir, "teva/internal/lintfixture/badsyntax")
	if err == nil {
		t.Fatal("CheckDir on a syntax-error package: want error, got nil")
	}
	if !strings.Contains(err.Error(), "badsyntax") {
		t.Errorf("error does not name the package: %v", err)
	}
}

// TestLoadBuildTagExclusion: a file constrained away for the host
// platform is skipped exactly like `go build` would skip it — even when
// it would not type-check — and the rest of the package still loads.
func TestLoadBuildTagExclusion(t *testing.T) {
	dir := writeFiles(t, map[string]string{
		"keep.go": "package tagged\n\n// Kept is compiled everywhere.\nfunc Kept() int { return 1 }\n",
		"skip.go": "//go:build sometag_that_never_matches\n\npackage tagged\n\nfunc Skipped() int { return undefinedSymbol }\n",
	})
	l := newTestLoader(t)
	p, err := l.CheckDir(dir, "teva/internal/lintfixture/tagged")
	if err != nil {
		t.Fatalf("CheckDir with an excluded file: %v", err)
	}
	if len(p.Files) != 1 {
		t.Errorf("loaded %d files, want 1 (skip.go excluded by its constraint)", len(p.Files))
	}
}

// TestLoadHonorsFileNameConstraints: a _GOOS file-name suffix is a build
// constraint too. a_windows.go redeclares F, so the package type-checks
// off windows only if the loader skips it like `go build` does.
func TestLoadHonorsFileNameConstraints(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("a_windows.go is selected on windows")
	}
	dir := writeFiles(t, map[string]string{
		"a.go":         "package suffixed\n\nfunc F() int { return 1 }\n",
		"a_windows.go": "package suffixed\n\nfunc F() int { return 2 }\n",
	})
	l := newTestLoader(t)
	p, err := l.CheckDir(dir, "teva/internal/lintfixture/suffixed")
	if err != nil {
		t.Fatalf("CheckDir with a _windows.go file: %v", err)
	}
	if len(p.Files) != 1 {
		t.Errorf("loaded %d files, want 1 (a_windows.go excluded by its name)", len(p.Files))
	}
}

// TestLoadAllFilesExcluded: when build constraints exclude every file the
// loader must say so by name instead of failing on a confusing
// no-such-symbol type error later.
func TestLoadAllFilesExcluded(t *testing.T) {
	dir := writeFiles(t, map[string]string{
		"only.go": "//go:build sometag_that_never_matches\n\npackage gone\n",
	})
	l := newTestLoader(t)
	_, err := l.CheckDir(dir, "teva/internal/lintfixture/gone")
	if err == nil {
		t.Fatal("CheckDir on an all-excluded package: want error, got nil")
	}
	if !strings.Contains(err.Error(), "excluded by build constraints") {
		t.Errorf("error does not name the cause: %v", err)
	}
}

// TestLoadImportCycle: a module-local import cycle is a named error (the
// chain importer detects it), not a promise deadlock.
func TestLoadImportCycle(t *testing.T) {
	l := newTestLoader(t)
	dir := filepath.Join(l.Root, "internal", "lint", "testdata", "loader", "cycle", "a")
	_, err := l.LoadDir(dir)
	if err == nil {
		t.Fatal("LoadDir on an import cycle: want error, got nil")
	}
	if !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("error does not name the cycle: %v", err)
	}
}

// TestLoadAllOrderAndErrors: LoadAll returns packages in directory order
// regardless of worker scheduling, joins per-directory failures into the
// returned error, and still hands back the packages that did load.
func TestLoadAllOrderAndErrors(t *testing.T) {
	l := newTestLoader(t)
	good := []string{
		filepath.Join(l.Root, "internal", "guard"),
		filepath.Join(l.Root, "internal", "obs"),
		filepath.Join(l.Root, "internal", "prng"),
	}
	empty := t.TempDir() // no Go files: a named load error
	dirs := append(append([]string{}, good[:2]...), empty, good[2])
	pkgs, err := l.LoadAll(dirs, 4)
	if err == nil {
		t.Error("LoadAll with an empty directory: want joined error, got nil")
	}
	if len(pkgs) != len(good) {
		t.Fatalf("LoadAll returned %d packages, want %d", len(pkgs), len(good))
	}
	for i, dir := range good {
		if pkgs[i].Dir != dir {
			t.Errorf("pkgs[%d].Dir = %s, want %s (directory order must survive parallel load)", i, pkgs[i].Dir, dir)
		}
	}
	// Loaded() includes transitive module imports, sorted by path.
	loaded := l.Loaded()
	if len(loaded) < len(good) {
		t.Errorf("Loaded() returned %d packages, want >= %d", len(loaded), len(good))
	}
	for i := 1; i < len(loaded); i++ {
		if loaded[i-1].Path >= loaded[i].Path {
			t.Errorf("Loaded() not sorted: %s before %s", loaded[i-1].Path, loaded[i].Path)
		}
	}
}

// BenchmarkVetFullRepo is the CI wall-time smoke for the whole vet
// pipeline: expand, parallel type-check of every package, whole-program
// summary build, all analyzers. Run with -benchtime=1x in CI; a big
// regression here means vet is no longer cheap enough to block merges.
func BenchmarkVetFullRepo(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		l := NewLoader(root)
		dirs, err := l.Expand([]string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := l.LoadAll(dirs, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		prog := BuildProgram(l.Loaded())
		count := 0
		for _, p := range pkgs {
			p.Prog = prog
			count += len(RunAnalyzers(p, All()))
		}
		if count != 0 {
			b.Fatalf("repo not clean: %d findings", count)
		}
	}
}
