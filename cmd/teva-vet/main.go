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
//	-sarif file       additionally write findings as SARIF 2.1.0 to file
//	                  (uploaded as a CI artifact for code-scanning UIs)
//
// The exit status is 0 when clean, 1 when findings are reported, and 2 on
// load/usage errors. Findings print as file:line:col: [analyzer] message,
// deduplicated and sorted so output is byte-identical run to run. The one
// way to suppress a finding is `//teva:allow <analyzer>` in source, on the
// offending line or the line before it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"teva/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	sarifOut := flag.String("sarif", "", "write findings as SARIF 2.1.0 to `file`")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
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

	pkgs, err := loader.LoadAll(dirs, runtime.GOMAXPROCS(0))
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

	if *sarifOut != "" {
		data, err := lint.SARIF(analyzers, findings)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*sarifOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "teva-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "teva-vet:", err)
	os.Exit(2)
}
