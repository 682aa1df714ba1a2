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
	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/trace"
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
	timing := flag.String("timing", "wide", "timing engine: wide (64-lane, default), fast (scalar reference), exact (event-driven, slow)")
	staScreen := flag.Bool("sta-screen", false, "skip dense DTA for ops whose worst STA slack clears the guardband")
	screenGuardband := flag.Float64("screen-guardband", 0, "minimum positive slack in ps an op must clear to be screened (with -sta-screen)")
	screenValidate := flag.Bool("screen-validate", false, "with -sta-screen: still simulate screened ops and fail on any disagreement")
	flag.Parse()

	level, err := vscale.ParseLevel(*levelName)
	if err != nil {
		fatal(err)
	}
	scale, err := workloads.ParseScale(strings.ToLower(*scaleName))
	if err != nil {
		fatal(err)
	}
	eng, err := dta.ParseEngine(*timing)
	if err != nil {
		fatal(err)
	}
	f, err := core.New(core.Config{
		Seed:             *seed,
		RandomOperands:   *operands,
		WorkloadOperands: *operands,
		Timing:           eng,
		Screen: dta.ScreenConfig{
			Enabled:   *staScreen,
			Guardband: *screenGuardband,
			Validate:  *screenValidate,
		},
	})
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	start := time.Now()

	var model errmodel.Model
	switch strings.ToLower(*modelName) {
	case "ia":
		if model, err = f.DevelopIACtx(ctx, level); err != nil {
			fatal(err)
		}
	case "wa":
		if *workloadName == "" {
			fatal(fmt.Errorf("-model wa requires -workload"))
		}
		w, err := workloads.ByName(*workloadName, scale)
		if err != nil {
			fatal(err)
		}
		tr, err := f.CaptureTrace(w)
		if err != nil {
			fatal(err)
		}
		if model, err = f.DevelopWACtx(ctx, level, tr); err != nil {
			fatal(err)
		}
	case "da":
		ws, err := workloads.All(scale)
		if err != nil {
			fatal(err)
		}
		var trs []*trace.Trace
		for _, w := range ws {
			tr, err := f.CaptureTrace(w)
			if err != nil {
				fatal(err)
			}
			trs = append(trs, tr)
		}
		if model, err = f.DevelopDACtx(ctx, level, trs); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown model %q (da, ia, wa)", *modelName))
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
