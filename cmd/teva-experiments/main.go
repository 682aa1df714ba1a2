// Command teva-experiments regenerates the paper's tables and figures
// from the reproduction's substrate. By default it runs every experiment
// at laptop scale; -exp selects one, -quick shrinks everything for a fast
// smoke run, and -full restores the paper's statistical settings (1068
// injections per cell).
//
// Usage:
//
//	teva-experiments [-exp NAME[,NAME...]] [-quick] [-full] [-scale tiny|small|full]
//	                 [-runs N] [-seed N] [-workers N]
//	                 [-cache-dir DIR] [-progress] [-max-duration D]
//	                 [-shards N] [-worker-bin FILE]
//	                 [-metrics-out FILE] [-pprof-cpu FILE] [-pprof-mem FILE]
//
// With -cache-dir, DTA characterization summaries and campaign cells are
// persisted to an on-disk artifact store keyed by their full provenance
// (seed, scale, sample counts, ...), so a re-run with the same settings
// reloads them instead of re-simulating. -progress periodically reports
// cells completed, cache hits, and elapsed time to stderr.
//
// With -shards N (requires -cache-dir), N supervised teva-worker
// processes prewarm the cache with lease-tracked work units before the
// suite runs; crashed workers are restarted, poison units quarantined by
// name, and stdout stays byte-identical to an unsharded run (see
// DESIGN.md "Process supervision").
//
// -exp takes a comma-separated list of experiment names, in any order;
// they always run in the canonical report order:
//
//	all (default), design, corners, table1, table2, fig4, fig5, fig6,
//	fig7, fig8, sources, power, process, validate, adders, history,
//	fig10, fig9, avm
//
// An unknown name exits 2 and lists the valid ones. The flags fill an
// experiments.Spec — the request form teva-serve decodes from JSON — so
// any value a served job would reject (an unknown name, a negative
// -runs, -workers or -screen-guardband, a bad -scale, -timing or
// -corners) also exits 2 here, before any work starts.
//
// The run shuts down in an orderly way: the first SIGINT/SIGTERM drains
// (in-flight cells finish and are cached, no new work is dispatched, the
// metrics snapshot and cache stats are still flushed, exit 130); a second
// signal aborts immediately. -max-duration sets a wall-clock budget that
// cancels in-flight work promptly and exits 124. Either way, rerunning
// the same command with the same -cache-dir resumes from the completed
// cells.
//
// With -metrics-out, the run's full metrics snapshot is written on exit:
// JSON by default, Prometheus text exposition format when the file name
// ends in .prom or .txt. All counters and histogram buckets in the
// snapshot are byte-deterministic for a given seed and flag set; the
// phase timers' "nanos" fields are the only wall-clock-dependent values.
// -pprof-cpu/-pprof-mem write standard runtime/pprof profiles for
// `go tool pprof`.
//
// The experiment dispatch itself lives in experiments.RunSuite, shared
// with the teva-serve HTTP front end; this binary owns only flags,
// signal handling, progress reporting, and profile/metrics flushing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"teva/internal/artifact"
	"teva/internal/cli"
	"teva/internal/core"
	"teva/internal/experiments"
	"teva/internal/obs"
)

func main() {
	valid := "all, " + strings.Join(experiments.Names(), ", ")
	exp := flag.String("exp", "all", "comma-separated experiments: "+valid)
	quick := flag.Bool("quick", false, "tiny inputs and counts for a fast smoke run")
	full := flag.Bool("full", false, "paper-scale statistics (1068 injections per cell; slow)")
	scaleName := flag.String("scale", "", "workload scale override: tiny, small, full")
	runs := flag.Int("runs", 0, "override injections per campaign cell")
	seed := flag.Uint64("seed", 0xF00D, "master seed")
	workers := flag.Int("workers", 0, "parallel workers (0: all cores)")
	csvDir := flag.String("csv", "", "also write machine-readable CSVs into this directory")
	cacheDir := flag.String("cache-dir", "", "persist DTA summaries and campaign cells in this artifact store")
	progress := flag.Bool("progress", false, "periodically report matrix progress and cache hits to stderr")
	metricsOut := flag.String("metrics-out", "", "write the metrics snapshot here on exit (JSON; Prometheus text if the name ends in .prom or .txt)")
	pprofCPU := flag.String("pprof-cpu", "", "write a CPU profile to this file")
	pprofMem := flag.String("pprof-mem", "", "write a heap profile to this file on exit")
	maxDuration := flag.Duration("max-duration", 0, "wall-clock budget; when exceeded, in-flight work is canceled and the run exits 124 (0: unlimited)")
	timing := flag.String("timing", "wide", "DTA timing engine: wide (64-lane, default), fast (scalar reference), exact (event-driven, slow)")
	cornerSpec := flag.String("corners", "", "corners for the multi-corner STA sweep: named corners (nominal, VR15, VR20) and/or supply voltages in volts, comma-separated (default: nominal,VR15,VR20)")
	staScreen := flag.Bool("sta-screen", false, "skip dense DTA for ops whose worst STA slack clears the guardband (screened ops are reported error-free)")
	screenGuardband := flag.Float64("screen-guardband", 0, "minimum positive slack in ps an op must clear to be screened (with -sta-screen)")
	screenValidate := flag.Bool("screen-validate", false, "with -sta-screen: still simulate screened ops and fail on any disagreement with the slack screen")
	shards := flag.Int("shards", 0, "prewarm the -cache-dir with this many supervised teva-worker processes before the suite runs (needs -cache-dir; crashed workers are restarted, poison units quarantined, and the report stays byte-identical to an unsharded run)")
	workerBin := flag.String("worker-bin", "", "teva-worker executable for -shards (default: next to this binary, then $PATH)")
	shardKillAfter := flag.String("shard-kill-after", "", "chaos drill: SIGKILL one live worker after N prewarm units complete (testing only)")
	flag.Parse()

	sp := experiments.Spec{
		Experiments: strings.Split(*exp, ","),
		Quick:       *quick, Full: *full, Scale: *scaleName, Runs: *runs,
		Seed: *seed, Workers: *workers, Timing: *timing, Corners: *cornerSpec,
		STAScreen: *staScreen, ScreenGuardband: *screenGuardband, ScreenValidate: *screenValidate,
	}
	if *maxDuration != 0 {
		sp.MaxDuration = maxDuration.String()
	}
	if err := sp.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "teva-experiments:", err)
		os.Exit(2)
	}
	opts, cfg, err := sp.Effective()
	if err != nil {
		fatal(err)
	}
	progStart := time.Now()
	clock := func() int64 { return int64(time.Since(progStart)) }
	reg := obs.NewRegistry(clock)
	cfg.Metrics = reg
	stopProfiles := cli.StartProfiles("teva-experiments", *pprofCPU, *pprofMem)

	if *cacheDir != "" {
		store, err := artifact.OpenIn(*cacheDir, reg)
		if err != nil {
			fatal(err)
		}
		cfg.Artifacts = store
	}

	ctx := context.Background()
	if *maxDuration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *maxDuration)
		defer cancel()
	}

	start := time.Now()
	experiments.PrintBanner(os.Stdout, opts, cfg.Seed)
	f, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("substrate: %d-gate FPU calibrated to CLK %.0f ps (built in %s)\n",
		f.FPU.NumGates(), f.FPU.CLK, time.Since(start).Round(time.Millisecond))
	env := experiments.NewEnvContext(ctx, f, opts)

	// Two-stage shutdown: the first SIGINT/SIGTERM drains — in-flight
	// cells finish and land in the artifact cache, remaining dispatch
	// stops, and the tail of main still flushes metrics and cache stats.
	// A second signal hard-exits without waiting.
	cli.OnInterrupt("teva-experiments", "draining in-flight cells, then flushing", env.Drain)

	if *progress {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					p := env.Progress()
					fmt.Fprintf(os.Stderr,
						"progress: cells %d/%d (%d from cache) | store: %s | elapsed %s\n",
						p.CellsDone, p.CellsTotal, p.CellsCached, p.Cache,
						time.Since(start).Round(time.Second))
				}
			}
		}()
	}

	suiteCfg := experiments.SuiteConfig{
		Experiments: sp.Experiments,
		CornerSpec:  sp.Corners,
		CSVDir:      *csvDir,
		OmitBanner:  true, // printed above, before the slow substrate build
		Trace:       os.Stdout,
		Diag:        os.Stderr,
		Clock:       clock,
	}
	if *shards > 1 {
		suiteCfg.Shards = *shards
		suiteCfg.ShardWorkerBin = resolveWorkerBin(*workerBin)
		if *shardKillAfter != "" {
			n, err := strconv.Atoi(*shardKillAfter)
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad -shard-kill-after %q\n", *shardKillAfter)
				os.Exit(2)
			}
			suiteCfg.ShardKillAfterUnits = n
		}
	}
	suiteErr := experiments.RunSuite(env, suiteCfg, os.Stdout)
	interrupted := false
	if suiteErr != nil {
		if !experiments.IsInterrupt(suiteErr) {
			fatal(suiteErr)
		}
		interrupted = true
	}

	if *cacheDir != "" {
		p := env.Progress()
		fmt.Fprintf(os.Stderr, "artifact cache (%s): %s; campaign cells reloaded %d/%d\n",
			*cacheDir, p.Cache, p.CellsCached, p.CellsDone)
	}
	stopProfiles()
	snap := reg.Snapshot()
	if *metricsOut != "" {
		if err := snap.WriteFile(*metricsOut); err != nil {
			fatal(err)
		}
	}
	// Diagnostic, and cache-dependent (a warm cache skips work): stderr,
	// like the cache-stats line, so stdout stays run-to-run identical.
	fmt.Fprintf(os.Stderr, "%s\n", snap.Summary())
	if interrupted || env.Draining() {
		code := 130
		reason := "interrupted by signal"
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			code = 124
			reason = fmt.Sprintf("-max-duration %s exceeded", *maxDuration)
		}
		fmt.Fprintf(os.Stderr, "teva-experiments: run stopped early (%s); completed cells were flushed\n", reason)
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "teva-experiments: resume by rerunning the same command with -cache-dir %s (finished cells reload from cache)\n", *cacheDir)
		} else {
			fmt.Fprintln(os.Stderr, "teva-experiments: add -cache-dir DIR to make interrupted runs resumable")
		}
		os.Exit(code)
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
}

// resolveWorkerBin locates the teva-worker executable for -shards:
// explicit -worker-bin wins, then a sibling of this binary (the normal
// `go build ./...` layout), then $PATH. An unresolvable worker is left
// empty — the suite notes it on stderr and runs in-process.
func resolveWorkerBin(explicit string) string {
	if explicit != "" {
		return explicit
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "teva-worker")
		if st, err := os.Stat(sibling); err == nil && !st.IsDir() {
			return sibling
		}
	}
	if p, err := exec.LookPath("teva-worker"); err == nil {
		return p
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "teva-experiments:", err)
	os.Exit(1)
}
