package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// modulePath is the repo's module path; module-local imports are resolved
// by mapping "teva/x/y" onto "<root>/x/y" instead of shelling out to the
// go tool, keeping the loader deterministic and dependency-free.
const modulePath = "teva"

// Loader parses and type-checks packages of this module. Standard-library
// imports are type-checked from $GOROOT source via go/importer's "source"
// compiler; module-local imports are resolved recursively through the
// loader itself, so one Loader instance memoizes every package it touches.
//
// The loader is safe for concurrent use: LoadAll type-checks independent
// packages in parallel, with per-path promises so a package shared by two
// load chains is checked exactly once. token.FileSet is concurrency-safe;
// the stdlib source importer is not, so stdMu serializes it (it memoizes
// internally, so the serialization only costs on first touch).
type Loader struct {
	// Root is the module root (the directory holding go.mod).
	Root string
	// Fset positions every file loaded through this loader.
	Fset *token.FileSet

	std   types.Importer
	stdMu sync.Mutex

	mu    sync.Mutex
	loads map[string]*loadPromise
}

// loadPromise is the memo entry for one import path: the first goroutine
// to request the path populates pkg/err and closes done; later requests
// wait on done and share the result.
type loadPromise struct {
	done chan struct{}
	pkg  *Package
	err  error
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:  root,
		Fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		loads: make(map[string]*loadPromise),
	}
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Expand resolves command-line package patterns ("./...", "./internal/...",
// "./cmd/teva-vet") into package directories relative to the module root.
// Directories named testdata (analyzer fixtures), hidden directories, and
// directories without non-test Go files are skipped.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "." || pat == "./" {
			pat = ""
		}
		pat = strings.TrimPrefix(pat, "./")
		base := filepath.Join(l.Root, filepath.FromSlash(pat))
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir holds at least one non-test Go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir loads the package in dir under its module-derived import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return nil, err
	}
	path := modulePath
	if rel != "." {
		path = modulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, dir, nil)
}

// LoadAll loads every directory with up to workers goroutines and returns
// the packages in the dirs' order (so output is deterministic regardless
// of scheduling). Shared imports are type-checked once. Per-directory
// failures are joined into one error; the successfully loaded packages
// are still returned alongside it.
func (l *Loader) LoadAll(dirs []string, workers int) ([]*Package, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(dirs) {
		workers = len(dirs)
	}
	pkgs := make([]*Package, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pkgs[i], errs[i] = l.LoadDir(dirs[i])
			}
		}()
	}
	for i := range dirs {
		next <- i
	}
	close(next)
	wg.Wait()
	out := pkgs[:0]
	for _, p := range pkgs {
		if p != nil {
			out = append(out, p)
		}
	}
	return out, errors.Join(errs...)
}

// Loaded returns every package this loader has successfully type-checked —
// requested directories and their transitive module-local imports — sorted
// by import path. This is the package set BuildProgram wants: summaries
// over imports included, so cross-package chains compose fully.
func (l *Loader) Loaded() []*Package {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*Package
	for _, pr := range l.loads {
		select {
		case <-pr.done:
			if pr.pkg != nil {
				out = append(out, pr.pkg)
			}
		default: // still loading; caller is racing LoadAll, skip
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// CheckDir type-checks dir as if it had the given import path. Analyzer
// fixtures use this to exercise path-dependent rules (detflow's source
// uses, panicbarrier's guarded packages) from testdata directories.
func (l *Loader) CheckDir(dir, asPath string) (*Package, error) {
	return l.load(asPath, dir, nil)
}

// Import implements types.Importer so external callers can resolve paths
// through the loader; internal type-checking goes through chainImporter,
// which additionally carries the import chain for cycle detection.
func (l *Loader) Import(path string) (*types.Package, error) {
	return chainImporter{l: l}.Import(path)
}

// chainImporter resolves imports for one package's type-check, carrying
// the chain of in-progress import paths: a module-local cycle is reported
// as a named error instead of deadlocking two promise waits.
type chainImporter struct {
	l     *Loader
	chain []string
}

func (ci chainImporter) Import(path string) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
		p, err := ci.l.load(path, filepath.Join(ci.l.Root, filepath.FromSlash(rel)), ci.chain)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	ci.l.stdMu.Lock()
	defer ci.l.stdMu.Unlock()
	return ci.l.std.Import(path)
}

// load parses and type-checks one directory, memoized by import path.
// Concurrent requests for the same path share one promise; the chain of
// import paths currently being loaded by this goroutine detects cycles.
func (l *Loader) load(path, dir string, chain []string) (*Package, error) {
	if slices.Contains(chain, path) {
		return nil, fmt.Errorf("lint: import cycle: %s -> %s", strings.Join(chain, " -> "), path)
	}
	l.mu.Lock()
	if pr, ok := l.loads[path]; ok {
		l.mu.Unlock()
		<-pr.done
		return pr.pkg, pr.err
	}
	pr := &loadPromise{done: make(chan struct{})}
	l.loads[path] = pr
	l.mu.Unlock()
	pr.pkg, pr.err = l.loadUncached(path, dir, append(chain, path))
	close(pr.done)
	return pr.pkg, pr.err
}

func (l *Loader) loadUncached(path, dir string, chain []string) (*Package, error) {
	// go/build applies the go command's file selection (build constraints,
	// _GOOS/_GOARCH file-name suffixes, _test.go) without running it.
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) && len(bp.IgnoredGoFiles) > 0 {
		return nil, fmt.Errorf("lint: package %s in %s: all %d Go files excluded by build constraints",
			path, dir, len(bp.IgnoredGoFiles))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: package %s: %w", path, err)
	}
	if len(bp.GoFiles) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing package %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := types.Config{Importer: chainImporter{l: l, chain: chain}}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// RelFile rewrites a finding's file path relative to the module root for
// stable, machine-friendly output.
func (l *Loader) RelFile(f Finding) Finding {
	if rel, err := filepath.Rel(l.Root, f.File); err == nil && !strings.HasPrefix(rel, "..") {
		f.File = filepath.ToSlash(rel)
	}
	return f
}
