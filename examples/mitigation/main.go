// Mitigation demonstrates AVM-guided selective error protection (the
// paper's closing claim: AVM can guide energy-efficient mitigation,
// yielding up to ~20% energy savings versus running at nominal voltage).
//
// The scheme: run undervolted at VR20, but protect only the instruction
// types the workload-aware model flags as error-prone, re-executing each
// protected instruction and comparing (duplication-with-compare, the
// classic timing-error detection/correction discipline). Protected
// instructions cost an extra FPU operation; everything else rides the
// lower voltage for free. The example verifies with injection campaigns
// that the mitigated configuration is clean (AVM 0) and accounts for the
// energy.
//
// Run with: go run ./examples/mitigation [workload]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"teva/internal/alu"
	"teva/internal/core"
	"teva/internal/cpu"
	"teva/internal/errmodel"
	"teva/internal/fpu"
	"teva/internal/power"
	"teva/internal/prng"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// mitigatedModel wraps a WA model, correcting (suppressing) errors on the
// protected instruction types — the effect of duplication-with-compare —
// while counting how many corrections fired.
type mitigatedModel struct {
	*errmodel.WAModel
	protected [fpu.NumOps]bool
}

type mitigatedInjector struct {
	inner     cpu.Injector
	protected *[fpu.NumOps]bool
	corrected int64
}

func (m *mitigatedModel) NewInjector(src *prng.Source) cpu.Injector {
	return &mitigatedInjector{inner: m.WAModel.NewInjector(src), protected: &m.protected}
}

func (mi *mitigatedInjector) OnWriteback(ev cpu.Event) uint64 {
	mask := mi.inner.OnWriteback(ev)
	if mask != 0 && ev.FPUDatapath && mi.protected[ev.FPOp] {
		mi.corrected++
		return 0 // detected and re-executed correctly
	}
	return mask
}

func main() {
	ctx := context.Background()
	name := "cg"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	f, err := core.New(core.Config{
		Seed:             11,
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
	level := vscale.VR20
	wa, err := f.DevelopWACtx(ctx, level, tr)
	if err != nil {
		log.Fatal(err)
	}

	const runs = 50
	baseline, err := f.EvaluateCtx(ctx, w, wa, runs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s at %s, unprotected: AVM %.3f (masked %.0f%%)\n",
		w.Name, level.Name, baseline.AVM(), 100*baseline.Fraction(0))

	// AVM-guided protection set: exactly the ops the WA model flags.
	mit := &mitigatedModel{WAModel: wa}
	fmt.Println("protected instruction types (WA-model guided):")
	for _, op := range fpu.Ops() {
		if wa.PerOp[op].ER > 0 {
			mit.protected[op] = true
			fmt.Printf("   %-10s ER %.2e, %.2f%% of dynamic instructions\n",
				op, wa.PerOp[op].ER, 100*tr.OpShare(op))
		}
	}

	mitigated, err := f.EvaluateCtx(ctx, w, mit, runs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with selective protection: AVM %.3f\n", mitigated.AVM())
	if mitigated.AVM() != 0 {
		fmt.Println("warning: residual vulnerability (errors outside the characterized set)")
	}

	// Energy accounting from the gate-level power profile (the Voltus
	// substitute): dynamic energy scales with V^2, and re-executing the
	// protected instructions pays their characterized switching energy a
	// second time.
	intU, err := alu.New(f.FPU.Lib, f.Cfg.Seed+0xA10)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := power.Characterize(ctx, f.FPU, intU, 120, f.Cfg.Seed^0x90AE, f.Cfg.Workers)
	if err != nil {
		log.Fatal(err)
	}
	base := prof.WorkloadBreakdown(tr)
	var dupFJ float64
	for _, op := range fpu.Ops() {
		if mit.protected[op] {
			dupFJ += float64(tr.OpCounts[op]) * prof.PerOp[op]
		}
	}
	// Two protection disciplines over the same AVM-guided set:
	//   duplication: every protected op re-executes (worst case);
	//   detect+replay (Razor-style): protected ops pay a detection-flop
	//   overhead, and only the (rare) erroneous ones re-execute.
	var protFJ, replayFJ float64
	for _, op := range fpu.Ops() {
		if mit.protected[op] {
			e := float64(tr.OpCounts[op]) * prof.PerOp[op]
			protFJ += e
			replayFJ += e * wa.PerOp[op].ER
		}
	}
	const detectOverhead = 0.15 // error-detection sequentials on protected paths
	supply := f.Volt.SupplyAtReduction(level.Reduction)
	vsq := f.Volt.DynamicPowerRatio(supply)
	dupEnergy := vsq * (base.TotalFJ + dupFJ) / base.TotalFJ
	razorEnergy := vsq * (base.TotalFJ + detectOverhead*protFJ + replayFJ) / base.TotalFJ
	fmt.Printf("\nenergy accounting (gate-level switching energy, relative to nominal):\n")
	fmt.Printf("   nominal voltage, no errors:        1.000  (%.0f nJ dynamic)\n", base.TotalFJ/1e6)
	fmt.Printf("   %s + full duplication:           %.3f  (savings %+.1f%%)\n",
		level.Name, dupEnergy, 100*(1-dupEnergy))
	fmt.Printf("   %s + detect-and-replay:          %.3f  (savings %+.1f%%)\n",
		level.Name, razorEnergy, 100*(1-razorEnergy))
	fmt.Printf("\nAVM-guided detect-and-replay keeps the undervolting win (paper: up to 20%%\n")
	fmt.Printf("energy savings); naive duplication forfeits it on FPU-energy-dominated\n")
	fmt.Printf("kernels — the AVM tells the designer which ops actually need protection.\n")
}
