// Package power performs gate-level dynamic power analysis of the
// generated units, substituting for the Cadence Voltus step of the
// paper's flow (Section IV-B.1). Energy comes from switching activity:
// every gate-output transition costs the cell's per-transition energy.
// FPU ops are DTA streams at the nominal corner, whose records carry the
// energy; the integer ALU and AGU are driven through the wide timing
// engine.
//
// The analysis backs two of the paper's observations: floating-point
// operations "emerge as a major contributor to the energy consumption
// (>30%)" of FP-heavy workloads, and dynamic energy scales with the
// square of the supply voltage (the saving undervolting buys).
package power

import (
	"context"

	"teva/internal/alu"
	"teva/internal/dta"
	"teva/internal/fpu"
	"teva/internal/prng"
	"teva/internal/timingsim"
	"teva/internal/trace"
)

// Profile holds the characterized per-operation dynamic energies at the
// nominal corner, in femtojoules.
type Profile struct {
	// PerOp is the mean dynamic energy of one FPU instruction, across
	// all pipeline stages (iterated stages counted per cycle).
	PerOp [fpu.NumOps]float64
	// IntOp is the mean dynamic energy of one integer ALU operation
	// (ALU + AGU activity), the per-instruction baseline of the core
	// model.
	IntOp float64
	// FPUGates and IntGates are the unit sizes.
	FPUGates, IntGates int
}

// Characterize measures per-op energies over `samples` random operand
// pairs per instruction, an FPU op's as one nominal-corner DTA stream.
func Characterize(ctx context.Context, f *fpu.FPU, intU *alu.Unit, samples int, seed uint64, workers int) (*Profile, error) {
	if samples < 2 {
		samples = 2
	}
	src := prng.New(seed)
	p := &Profile{FPUGates: f.NumGates(), IntGates: intU.NumGates()}
	for _, op := range fpu.Ops() {
		n := samples
		if op == fpu.DDiv || op == fpu.SDiv {
			n = samples/8 + 2
		}
		// DTA reads only the low OperandWidth bits of each operand.
		opSrc := src.Split()
		pairs := make([]dta.Pair, n)
		for i := range pairs {
			pairs[i] = dta.Pair{A: opSrc.Uint64(), B: opSrc.Uint64()}
		}
		recs, err := dta.AnalyzeStream(ctx, f, op, 1.0, dta.EngineWide, dta.Full, pairs, workers, nil)
		if err != nil {
			return nil, err
		}
		var total float64 // record 0 only warms the pipeline from zero
		for _, r := range recs[1:] {
			total += r.EnergyFJ
		}
		p.PerOp[op] = total / float64(n-1)
	}
	p.IntOp = intEnergy(intU, samples, src.Split())
	return p, nil
}

// intEnergy measures the integer side: an ALU add plus an AGU add per
// operation (the dominant per-instruction switching of the core model).
// The samples form one serial stream, 64 per wide walk.
func intEnergy(u *alu.Unit, samples int, src *prng.Source) float64 {
	aluSim := timingsim.NewWideFast(u.ALU.Compiled(), 1.0)
	aguSim := timingsim.NewWideFast(u.AGU.Compiled(), 1.0)
	nALU, nAGU := len(u.ALU.Inputs()), len(u.AGU.Inputs())
	aluIn, aluPrev, aluCarry := make([]uint64, nALU), make([]uint64, nALU), make([]uint64, nALU)
	aguIn, aguPrev, aguCarry := make([]uint64, nAGU), make([]uint64, nAGU), make([]uint64, nAGU)
	var total float64
	var counted int
	for lo := 0; lo < samples; lo += 64 {
		n := min(64, samples-lo)
		clear(aluIn)
		clear(aguIn)
		for lane := 0; lane < n; lane++ {
			bit := uint64(1) << uint(lane)
			for j := 0; j < 64; j++ { // operands only; function code stays add
				if src.Bool() {
					aluIn[j] |= bit
				}
			}
			for j := range aguIn {
				if src.Bool() {
					aguIn[j] |= bit
				}
			}
		}
		timingsim.ChainLanes(aluPrev, aluIn, aluCarry, n)
		timingsim.ChainLanes(aguPrev, aguIn, aguCarry, n)
		sa := aluSim.Run(aluPrev, aluIn, 0, timingsim.MaxDeadline)
		sg := aguSim.Run(aguPrev, aguIn, 0, timingsim.MaxDeadline)
		for lane := 0; lane < n; lane++ {
			if lo+lane > 0 {
				total += sa.EnergyFJ[lane] + sg.EnergyFJ[lane]
				counted++
			}
		}
	}
	return total / float64(counted)
}

// Breakdown is the estimated energy split of one workload execution.
type Breakdown struct {
	// FPUEnergyFJ and IntEnergyFJ are the dynamic energy totals.
	FPUEnergyFJ, IntEnergyFJ float64
	// FPUShare is the FPU's fraction of the total.
	FPUShare float64
	// TotalFJ is the whole-run dynamic energy at nominal voltage.
	TotalFJ float64
}

// WorkloadBreakdown combines the profile with a workload trace: every
// FPU-datapath instruction pays its characterized energy; every other
// instruction pays the integer baseline.
func (p *Profile) WorkloadBreakdown(tr *trace.Trace) Breakdown {
	var b Breakdown
	var fpInstr int64
	for op, count := range tr.OpCounts {
		b.FPUEnergyFJ += float64(count) * p.PerOp[op]
		fpInstr += count
	}
	b.IntEnergyFJ = float64(tr.TotalInstr-fpInstr) * p.IntOp
	b.TotalFJ = b.FPUEnergyFJ + b.IntEnergyFJ
	if b.TotalFJ > 0 {
		b.FPUShare = b.FPUEnergyFJ / b.TotalFJ
	}
	return b
}
