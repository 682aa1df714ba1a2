// Command teva-inject runs the application evaluation phase: a
// microarchitectural error-injection campaign for one benchmark under an
// error model, classifying outcomes into Masked/SDC/Crash/Timeout and
// reporting the injected error ratio and the AVM.
//
// The model comes either from a file produced by teva-dta (-model-file)
// or is developed on the fly (-model da|ia|wa).
//
// Usage:
//
//	teva-inject -workload cg -model wa -level VR20 -runs 200
//	teva-inject -workload sobel -model-file ia_vr20.json -runs 1068
//
// With -metrics-out, the campaign's metrics snapshot (dta.* and
// campaign.* counters, phase timers) is written on exit: JSON by
// default, Prometheus text when the file name ends in .prom or .txt.
// -pprof-cpu/-pprof-mem write standard runtime/pprof profiles.
//
// The first SIGINT/SIGTERM cancels the campaign; the metrics snapshot is
// still flushed before the process exits 130. A second signal aborts
// immediately. -max-duration bounds the whole run the same way (exit
// 124).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"teva/internal/campaign"
	"teva/internal/cli"
	"teva/internal/core"
	"teva/internal/errmodel"
	"teva/internal/experiments"
	"teva/internal/obs"
	"teva/internal/stats"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

func main() {
	workloadName := flag.String("workload", "", "benchmark to inject into (required)")
	modelName := flag.String("model", "wa", "model family to develop: da, ia, wa")
	modelFile := flag.String("model-file", "", "load a serialized model instead of developing one")
	levelName := flag.String("level", "VR20", "voltage reduction level (when developing)")
	scaleName := flag.String("scale", "small", "workload scale: tiny, small, full")
	runs := flag.Int("runs", 200, "injected executions (paper: 1068)")
	paper := flag.Bool("paper-runs", false, "use the paper's 1068-run statistical setting")
	seed := flag.Uint64("seed", 0xF00D, "master seed")
	metricsOut := flag.String("metrics-out", "", "write the metrics snapshot here on exit (JSON; Prometheus text if the name ends in .prom or .txt)")
	pprofCPU := flag.String("pprof-cpu", "", "write a CPU profile to this file")
	pprofMem := flag.String("pprof-mem", "", "write a heap profile to this file on exit")
	maxDuration := flag.Duration("max-duration", 0, "wall-clock budget; when exceeded, the campaign is canceled and the run exits 124 (0: unlimited)")
	flag.Parse()

	// The flags fill the same Spec teva-experiments and teva-serve
	// validate and resolve. Every flag is checked before any work: a bad
	// one exits 2.
	sp := experiments.Spec{Scale: strings.ToLower(*scaleName), Seed: *seed, Runs: *runs}
	if *paper {
		sp.Runs = stats.SampleSize(stats.Z95, 0.03)
	} else if *runs < 1 {
		usage(fmt.Errorf("-runs %d: need at least one injected run", *runs))
	}
	if err := sp.Validate(); err != nil {
		usage(err)
	}
	var (
		kind  errmodel.Kind
		level vscale.VRLevel
		err   error
	)
	if *modelFile == "" {
		if kind, err = errmodel.ParseKind(*modelName); err != nil {
			usage(err)
		}
		if level, err = vscale.ParseLevel(*levelName); err != nil {
			usage(err)
		}
	}
	opts, cfg, err := sp.Effective()
	if err != nil {
		fatal(err)
	}
	w, err := workloads.ByName(*workloadName, opts.Scale)
	if err != nil {
		usage(fmt.Errorf("-workload: %w", err))
	}

	reg := newMetrics()
	stopProfiles := cli.StartProfiles("teva-inject", *pprofCPU, *pprofMem)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *maxDuration > 0 {
		ctx, cancel = context.WithTimeout(ctx, *maxDuration)
		defer cancel()
	}

	// Two-stage shutdown: the first SIGINT/SIGTERM cancels the campaign
	// context (model development and injection runs abort promptly, then
	// main's tail flushes the metrics snapshot); a second signal
	// hard-exits without waiting.
	cli.OnInterrupt("teva-inject", "canceling the campaign", cancel)

	cfg.Metrics = reg
	f, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}

	var model errmodel.Model
	if *modelFile != "" {
		data, err := os.ReadFile(*modelFile)
		if err != nil {
			fatal(err)
		}
		model, err = errmodel.Unmarshal(data)
		if err != nil {
			fatal(err)
		}
	} else {
		env := experiments.NewEnvContext(ctx, f, opts)
		model, err = env.Model(kind, level, w)
		if err != nil {
			exitOnErr(err, reg, *metricsOut, *maxDuration)
		}
	}

	n := opts.Runs
	fmt.Printf("injecting: %s into %s (%s scale), %d runs\n",
		model.Describe(), w.Name, opts.Scale, n)
	start := time.Now()
	res, err := f.EvaluateCtx(ctx, w, model, n)
	if err != nil {
		exitOnErr(err, reg, *metricsOut, *maxDuration)
	}
	fmt.Printf("\ngolden run: %d instructions, %d cycles\n", res.GoldenInstret, res.GoldenCycles)
	fmt.Printf("outcomes over %d runs (%s):\n", res.Runs, time.Since(start).Round(time.Millisecond))
	for o := campaign.Masked; o < campaign.NumOutcomes; o++ {
		lo, hi := res.Wilson(o)
		fmt.Printf("  %-8s %5d  (%5.1f%%, 95%% CI [%.1f%%, %.1f%%])\n",
			o, res.Outcomes[o], 100*res.Fraction(o), 100*lo, 100*hi)
	}
	fmt.Printf("injected errors: %d total across %d runs (ER %.3e per instruction)\n",
		res.InjectedErrors, res.RunsWithInjection, res.ErrorRatio())
	fmt.Printf("AVM (Eq. 4): %.3f\n", res.AVM())
	stopProfiles()
	snap := reg.Snapshot()
	if *metricsOut != "" {
		if err := snap.WriteFile(*metricsOut); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s\n", snap.Summary())
}

// newMetrics builds the run's registry with a real monotonic clock; the
// simulation packages only ever see the injected closure (detflow bans
// direct time reads there).
func newMetrics() *obs.Registry {
	start := time.Now()
	return obs.NewRegistry(func() int64 { return int64(time.Since(start)) })
}

// exitOnErr handles a campaign-phase failure. An orderly stop (canceled
// by signal or an expired -max-duration budget) still flushes the
// metrics snapshot and exits with the conventional code — 130 for a
// signal, 124 for a timeout; any other error is fatal.
func exitOnErr(err error, reg *obs.Registry, metricsOut string, maxDuration time.Duration) {
	canceled := errors.Is(err, context.Canceled)
	deadline := errors.Is(err, context.DeadlineExceeded)
	if !canceled && !deadline {
		fatal(err)
	}
	snap := reg.Snapshot()
	if metricsOut != "" {
		if err := snap.WriteFile(metricsOut); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s\n", snap.Summary())
	code := 130
	reason := "interrupted by signal"
	if deadline {
		code = 124
		reason = fmt.Sprintf("-max-duration %s exceeded", maxDuration)
	}
	fmt.Fprintf(os.Stderr, "teva-inject: campaign stopped early (%s)\n", reason)
	os.Exit(code)
}

// usage rejects a bad flag value before any work.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "teva-inject:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "teva-inject:", err)
	os.Exit(1)
}
