// Undervolting reproduces the Section V-C use case: using the
// workload-aware model to find, per application, the deepest supply
// reduction that leaves execution undisturbed (AVM = 0), and the dynamic
// power saving that operating point unlocks. Because the framework's
// voltage model is analytic, the sweep is not limited to the paper's two
// corners — it characterizes a whole ladder of reduction levels.
//
// Run with: go run ./examples/undervolting [workload] [steps]
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strconv"

	"teva/internal/core"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

func main() {
	ctx := context.Background()
	name := "sobel"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	steps := 5
	if len(os.Args) > 2 {
		if v, err := strconv.Atoi(os.Args[2]); err == nil && v > 0 {
			steps = v
		}
	}
	f, err := core.New(core.Config{
		Seed:             7,
		RandomOperands:   2000,
		WorkloadOperands: 2500,
	})
	if err != nil {
		log.Fatal(err)
	}
	w, err := workloads.ByName(name, workloads.Small)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := f.CaptureTrace(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("voltage ladder for %s (nominal %.2f V)\n", w.Name, f.Volt.VddNominal)
	fmt.Printf("%-8s %-9s %-10s %-12s %-10s %s\n",
		"level", "supply", "delay x", "AVM (WA)", "power", "verdict")

	const runs = 40
	safest := vscale.VRLevel{Name: "nominal", Reduction: 0}
	for i := 1; i <= steps; i++ {
		red := 0.25 * float64(i) / float64(steps) // sweep up to 25% reduction
		level := vscale.VRLevel{Name: fmt.Sprintf("VR%02.0f", red*100), Reduction: red}
		wa, err := f.DevelopWACtx(ctx, level, tr)
		if err != nil {
			log.Fatal(err)
		}
		res, err := f.EvaluateSingleCtx(ctx, w, wa, runs)
		if err != nil {
			log.Fatal(err)
		}
		supply := f.Volt.SupplyAtReduction(red)
		verdict := "UNSAFE"
		if res.AVM() == 0 {
			verdict = "safe"
			safest = level
		}
		fmt.Printf("%-8s %6.3f V %9.3fx %12.3f %8.0f%%  %s\n",
			level.Name, supply, f.Volt.ScaleFor(level), res.AVM(),
			100*f.Volt.PowerSavings(supply), verdict)
		if res.AVM() > 0.9 {
			break // everything deeper is certain to fail too
		}
	}

	if safest.Reduction == 0 {
		fmt.Printf("\n%s needs the nominal supply: no undervolting headroom at this granularity\n", w.Name)
		return
	}
	supply := f.Volt.SupplyAtReduction(safest.Reduction)
	fmt.Printf("\nWA-guided operating point for %s: %s (%.3f V) -> %.0f%% dynamic power savings\n",
		w.Name, safest.Name, supply, 100*f.Volt.PowerSavings(supply))
	fmt.Printf("a data-agnostic model would have kept the core at nominal voltage,\n")
	fmt.Printf("forfeiting those savings (the paper's Section V-C conclusion)\n")
}
