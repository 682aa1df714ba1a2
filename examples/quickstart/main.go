// Quickstart walks the framework's two phases end to end on one
// benchmark:
//
//  1. Model development — gate-level dynamic timing analysis of the FPU
//     at a reduced supply voltage, first over random operands (the
//     IA-model view) and then over operands traced from the benchmark
//     itself (the WA-model view).
//  2. Application evaluation — a microarchitectural injection campaign
//     with the workload-aware model, classifying outcomes into
//     Masked/SDC/Crash/Timeout and reporting the AVM.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"teva/internal/campaign"
	"teva/internal/core"
	"teva/internal/fpu"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

func main() {
	ctx := context.Background()
	// Build the substrate: a ~32k-gate calibrated FPU plus the analysis
	// stack. Characterization sizes are kept small for a fast demo.
	f, err := core.New(core.Config{
		Seed:             42,
		RandomOperands:   4000,
		WorkloadOperands: 2000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("substrate ready: %d-gate FPU, CLK %.1f ns\n",
		f.FPU.NumGates(), f.FPU.CLK/1000)

	// Phase 1a: instruction-aware characterization (random operands).
	level := vscale.VR20
	fmt.Printf("\n-- dynamic timing analysis at %s (supply %.3f V, delays x%.3f)\n",
		level.Name, f.Volt.SupplyAtReduction(level.Reduction), f.Volt.ScaleFor(level))
	sums, err := f.RandomSummariesCtx(ctx, level)
	if err != nil {
		log.Fatal(err)
	}
	for _, op := range []fpu.Op{fpu.DMul, fpu.DSub, fpu.DAdd, fpu.DI2F, fpu.SMul} {
		s := sums[op]
		fmt.Printf("   %-10s error ratio %.2e  multi-bit share %.0f%%\n",
			op, s.ErrorRatio(), 100*s.MultiBitFraction())
	}

	// Phase 1b: workload-aware characterization for the cg benchmark.
	w, err := workloads.ByName("cg", workloads.Small)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := f.CaptureTrace(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- traced %s: %d instructions, %.1f%% on the FPU datapath\n",
		w.Name, tr.TotalInstr, 100*float64(tr.FPTotal())/float64(tr.TotalInstr))
	wa, err := f.DevelopWACtx(ctx, level, tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %s\n", wa.Describe())
	for _, op := range fpu.Ops() {
		if st := wa.PerOp[op]; st.ER > 0 {
			fmt.Printf("   %-10s workload-specific ER %.2e (%d observed bitmasks)\n",
				op, st.ER, len(st.Masks))
		}
	}

	// Phase 2: injection campaign.
	const runs = 60
	fmt.Printf("\n-- injecting into %s (%d runs, timeout at 2x golden time)\n", w.Name, runs)
	res, err := f.EvaluateCtx(ctx, w, wa, runs)
	if err != nil {
		log.Fatal(err)
	}
	for o := campaign.Masked; o < campaign.NumOutcomes; o++ {
		fmt.Printf("   %-8s %5.1f%%\n", o, 100*res.Fraction(o))
	}
	fmt.Printf("   injected error ratio (Eq. 2): %.3e\n", res.ErrorRatio())
	fmt.Printf("   application vulnerability metric (Eq. 4): %.3f\n", res.AVM())
}
