// Command teva-dta runs the model development phase: dynamic timing
// analysis of the gate-level FPU at a voltage corner, producing an error
// model file (DA, IA, or WA) for later injection campaigns.
//
// Usage:
//
//	teva-dta -model ia -level VR20 -o ia_vr20.json
//	teva-dta -model wa -level VR15 -workload cg -o wa_cg_vr15.json
//	teva-dta -model da -level VR20 -o da_vr20.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"teva/internal/core"
	"teva/internal/errmodel"
	"teva/internal/experiments"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

func main() {
	modelName := flag.String("model", "wa", "model family: da, ia, wa")
	levelName := flag.String("level", "VR20", "voltage reduction level: VR15, VR20")
	workloadName := flag.String("workload", "", "benchmark for the WA model (required for -model wa)")
	scaleName := flag.String("scale", "small", "workload scale: tiny, small, full")
	out := flag.String("o", "", "output model file (default stdout)")
	operands := flag.Int("operands", 0, "DTA operands per instruction type (0: default)")
	seed := flag.Uint64("seed", 0xF00D, "master seed")
	timing := flag.String("timing", "wide", "timing engine: wide (64-lane, default), exact (event-driven, slow)")
	flag.Parse()

	level, err := vscale.ParseLevel(*levelName)
	if err != nil {
		fatal(err)
	}
	// The flags fill the same Spec teva-experiments and teva-serve
	// validate and resolve; -operands then sizes both DTA samples.
	sp := experiments.Spec{
		Scale: strings.ToLower(*scaleName), Seed: *seed, Timing: *timing,
	}
	if err := sp.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "teva-dta:", err)
		os.Exit(2)
	}
	opts, cfg, err := sp.Effective()
	if err != nil {
		fatal(err)
	}
	cfg.RandomOperands, cfg.WorkloadOperands = *operands, *operands
	f, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	kind := errmodel.Kind(strings.ToUpper(*modelName))
	var w *workloads.Workload
	if kind == errmodel.WA {
		if *workloadName == "" {
			fatal(fmt.Errorf("-model wa requires -workload"))
		}
		if w, err = workloads.ByName(*workloadName, opts.Scale); err != nil {
			fatal(err)
		}
	}
	env := experiments.NewEnvContext(context.Background(), f, opts)
	start := time.Now()
	model, err := env.Model(kind, level, w)
	if err != nil {
		fatal(err)
	}

	data, err := errmodel.Marshal(model)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Println(string(data))
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "teva-dta: %s (developed in %s)\n",
		model.Describe(), time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "teva-dta:", err)
	os.Exit(1)
}
