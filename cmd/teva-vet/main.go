// Command teva-vet runs TEVA's domain-specific static analyzers over the
// repo. It enforces the invariants the experiment pipeline's determinism
// guarantee rests on — see the internal/lint package documentation and
// the "Static invariants" section of DESIGN.md. There are eight analyzers
// (-list prints them): five per-site checks (opcodeswitch, floateq,
// obsnames, panicbarrier, sampleretain) and three interprocedural ones
// (detflow, ctxflow, hotalloc).
//
// Usage:
//
//	teva-vet [flags] [packages...]
//
// Packages default to ./... and accept go-style patterns relative to the
// module root (./internal/..., ./cmd/teva-dta). Matched packages and
// their module-local imports are type-checked in parallel, then the
// whole-program call-graph summaries shared by the interprocedural
// analyzers (detflow, ctxflow, hotalloc) are built once over everything
// loaded, so cross-package source→sink chains are found no matter which
// package the sink lives in.
//
// Flags:
//
//	-list             list analyzers with their one-line docs and exit
//	-json             emit findings as a JSON array (machine-readable)
//	-sarif file       additionally write findings as SARIF 2.1.0 to file
//	                  (uploaded as a CI artifact for code-scanning UIs)
//	-baseline file    suppress findings recorded in the baseline file;
//	                  stale (already-fixed) entries are reported and fail
//	                  the run, so the baseline only ever shrinks
//	-write-baseline file
//	                  write all current findings to file and exit 0 —
//	                  the burn-down starting point for a new analyzer
//	-parallel n       package-loading workers (default GOMAXPROCS)
//
// The exit status is 0 when clean (after baseline filtering), 1 when
// findings are reported, and 2 on load/usage errors. Findings print as
// file:line:col: [analyzer] message, deduplicated and sorted so output is
// byte-identical run to run. Individual findings are suppressed in source
// with `//teva:allow <analyzer>` on the offending line or the line before
// it; whole accepted backlogs live in the baseline file instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"teva/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	list := flag.Bool("list", false, "list analyzers and exit")
	sarifOut := flag.String("sarif", "", "write findings as SARIF 2.1.0 to `file`")
	baselinePath := flag.String("baseline", "", "suppress findings recorded in baseline `file`")
	writeBaseline := flag.String("write-baseline", "", "record current findings to baseline `file` and exit")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "package-loading workers")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	var baseline *lint.Baseline
	if *baselinePath != "" {
		b, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		baseline = b
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader := lint.NewLoader(root)
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fatal(err)
	}

	pkgs, err := loader.LoadAll(dirs, *parallel)
	if err != nil {
		fatal(err)
	}
	// One summary database over everything the load touched (imports
	// included), shared by every package's interprocedural analyzers.
	prog := lint.BuildProgram(loader.Loaded())

	var findings []lint.Finding
	for _, pkg := range pkgs {
		pkg.Prog = prog
		for _, f := range lint.RunAnalyzers(pkg, analyzers) {
			findings = append(findings, loader.RelFile(f))
		}
	}
	findings = lint.SortFindings(findings)

	if *writeBaseline != "" {
		if err := lint.WriteBaseline(*writeBaseline, findings); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "teva-vet: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return
	}

	var stale []lint.BaselineEntry
	suppressed := 0
	if baseline != nil {
		stale = baseline.Stale(findings)
		findings, suppressed = baseline.Filter(findings)
	}

	if *sarifOut != "" {
		data, err := lint.SARIF(analyzers, findings)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*sarifOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		if findings == nil {
			findings = []lint.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "teva-vet: %d finding(s)", len(findings))
			if suppressed > 0 {
				fmt.Fprintf(os.Stderr, " (+%d baselined)", suppressed)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "teva-vet: stale baseline entry (fixed — delete it): [%s] %s: %s\n",
			e.Analyzer, e.File, e.Message)
	}
	// Stale entries fail the run too: the baseline may only shrink, and a
	// leftover entry would mask the finding if the bug ever came back.
	if len(findings) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "teva-vet:", err)
	os.Exit(2)
}
