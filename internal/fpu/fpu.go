package fpu

import (
	"fmt"
	"math"
	"sync"

	"teva/internal/cell"
	"teva/internal/sta"
)

// DefaultCLK is the design's clock period in picoseconds. It matches the
// paper's reference implementation, whose fastest achieved clock is 4.5ns,
// and is produced by Eq. 1: the double-precision multiplier's
// carry-propagate stage is calibrated to exactly this delay.
const DefaultCLK = 4500

// padPlan holds the calibrated per-stage margin targets as fractions of
// the clock period. These place each instruction's critical stage where
// the reference design's dynamic timing profile has it:
//
//   - fp-mul.d's CPA stage defines the clock (fraction 1.0);
//   - fp-sub.d sits high enough to fail under 15% voltage reduction;
//   - fp-add.d and fp-div.d cross the failure threshold only at 20%;
//   - rounding stages sit lower still, contributing rare exponent-bit
//     errors at deep undervolting;
//   - conversions and the single-precision datapaths are left at their
//     natural (comfortable) slack and never fail at the studied corners.
//
// With the alpha-power delay model, the failure thresholds are
// CLK/1.174 = 0.852*CLK at VR15 and CLK/1.256 = 0.796*CLK at VR20.
var padPlan = map[Op]struct{ mant, round float64 }{
	DMul: {mant: 1.000, round: 0.790},
	DSub: {mant: 0.920, round: 0.770},
	DAdd: {mant: 0.870, round: 0.755},
	DDiv: {mant: 0.865, round: 0.740},
}

// FPU is the full gate-level floating-point unit: one pipeline per
// instruction, all calibrated against a common clock.
type FPU struct {
	// Lib is the standard-cell library the unit is implemented in.
	Lib *cell.Library
	// CLK is the clock period, ps.
	CLK float64
	// Seed reproduces the exact placed design.
	Seed uint64

	pipelines [NumOps]*Pipeline
	scratch   sync.Map
}

// Scratch is a per-FPU cache for derived state (e.g. pooled DTA
// analyzers). Consumers must key entries with their own unexported types
// so packages cannot collide; everything cached here dies with the FPU,
// which keeps such caches from pinning retired designs the way a global
// registry would.
//
// One FPU may serve several runs at once (a server shares a seed's design
// across its admitted jobs), so an entry must be a pure function of the
// FPU and its key: never a run's configuration, metrics registry or
// context, and nothing a reader can observe another run mutating.
func (f *FPU) Scratch() *sync.Map { return &f.scratch }

// New generates and calibrates the FPU. The same seed reproduces the
// identical design, including interconnect annotation. Every pipeline
// keeps the nominal stage delays calibration measured (StageDelays).
func New(lib *cell.Library, seed uint64) (*FPU, error) {
	f := &FPU{Lib: lib, CLK: DefaultCLK, Seed: seed}
	var clk float64
	for _, op := range Ops() {
		s := opSeed(op, seed)
		in, specs := opSpecs(op, 0, 0)
		p, err := compile(op, lib, s, in, specs)
		if err != nil {
			return nil, err
		}
		delays := make([]float64, len(p.Stages))
		for i, st := range p.Stages {
			delays[i] = st.sta(lib).WorstDelay
		}
		if _, padded := padPlan[op]; padded {
			if err := f.calibrate(p, delays, s); err != nil {
				return nil, err
			}
		}
		for _, d := range delays {
			clk = max(clk, d)
		}
		p.delays = delays
		f.pipelines[op] = p
	}
	// The multiplier's CPA stage must set the clock (Eq. 1): clk is
	// ClockPeriod, from the delays calibration already measured.
	if math.Abs(clk-f.CLK) > 2 {
		return nil, fmt.Errorf("fpu: calibrated clock %f ps, want %f", clk, f.CLK)
	}
	return f, nil
}

// calibrate pads p's two critical stages onto their padPlan targets,
// updating delays (p's per-stage STA worst delays) as it goes. The
// detour's own buffer delay shifts the result, so it re-pads until the
// stages land on target; the builder is deterministic per seed, so this
// converges exactly. Only the padded stages read the pads, so only they
// are rebuilt and re-analyzed.
func (f *FPU) calibrate(p *Pipeline, delays []float64, seed uint64) error {
	plan := padPlan[p.Op]
	mi, ri := criticalStageIndexes(p.Op)
	var mantPad, roundPad float64
	for iter := 0; iter < 3; iter++ {
		dm := plan.mant*f.CLK - delays[mi]
		dr := plan.round*f.CLK - delays[ri]
		if math.Abs(dm) < 0.5 && math.Abs(dr) < 0.5 {
			return nil
		}
		mantPad = math.Max(0, mantPad+dm)
		roundPad = math.Max(0, roundPad+dr)
		_, specs := opSpecs(p.Op, mantPad, roundPad)
		for _, i := range []int{mi, ri} {
			old := p.Stages[i]
			s, err := compileStage(p.Op, p.lib, seed, i, old.in, specs[i])
			if err != nil {
				return err
			}
			if !s.out.equal(old.out) {
				return fmt.Errorf("fpu: %s: padding %s changes its schema", p.Op, s.Name)
			}
			p.Stages[i] = s
			delays[i] = s.sta(p.lib).WorstDelay
		}
	}
	return nil
}

// opSeed spreads the design seed so each op gets an independent
// placement.
func opSeed(op Op, seed uint64) uint64 { return seed + uint64(op)*0x1000003 }

// opSpecs dispatches to the per-kind stage descriptions. Only the padded
// ops read mantPad and roundPad, and only in their criticalStageIndexes
// stages.
func opSpecs(op Op, mantPad, roundPad float64) (*schema, []stageSpec) {
	switch op.kind() {
	case kindAdd, kindSub:
		return addSubSpecs(op, mantPad, roundPad)
	case kindMul:
		return mulSpecs(op, mantPad, roundPad)
	case kindDiv:
		return divSpecs(op, mantPad, roundPad)
	case kindI2F:
		return i2fSpecs(op)
	case kindF2I:
		return f2iSpecs(op)
	}
	panic("fpu: unknown op kind")
}

// criticalStageIndexes returns the indexes of the padded mantissa-datapath
// stage and the round stage for a padded op.
func criticalStageIndexes(op Op) (mant, round int) {
	switch op.kind() {
	case kindAdd, kindSub, kindMul:
		return 3, 5
	case kindDiv:
		return 1, 3
	}
	panic("fpu: op has no padded stages")
}

// Pipeline returns the gate-level pipeline for the op.
func (f *FPU) Pipeline(op Op) *Pipeline { return f.pipelines[op] }

// StageReports runs STA on every stage of every op, tagged by unit names.
func (f *FPU) StageReports() []*sta.Report {
	var all []*sta.Report
	for _, op := range Ops() {
		all = append(all, f.pipelines[op].STA()...)
	}
	return all
}

// StageReportsCorner is StageReports re-derated at an operating corner:
// one STA per stage with every cell delay inflated by the corner's
// alpha-power scale, without rebuilding any netlist.
func (f *FPU) StageReportsCorner(corner cell.Corner) []*sta.Report {
	var all []*sta.Report
	for _, op := range Ops() {
		all = append(all, f.pipelines[op].STACorner(corner)...)
	}
	return all
}

// ClockPeriod evaluates Eq. 1 over all pipeline stages: the maximum
// worst-case stage delay, which the calibration pins to CLK.
func (f *FPU) ClockPeriod() float64 {
	return sta.ClockPeriod(f.StageReports(), 1.0)
}

// Vary returns a process-variation instance of the FPU: the same design
// with per-gate lognormal delay factors (sigma, seed select the die).
// The clock period is unchanged — variation eats into the signoff margin,
// which is exactly how silicon experiences it. The die keeps no stage
// delays of the design's: its StageDelays run STA over its own netlists.
func (f *FPU) Vary(sigma float64, seed uint64) *FPU {
	die := &FPU{Lib: f.Lib, CLK: f.CLK, Seed: f.Seed}
	for op, p := range f.pipelines {
		vp := &Pipeline{Op: p.Op, lib: p.lib}
		for i, s := range p.Stages {
			vp.Stages = append(vp.Stages, &Stage{
				Name:   s.Name,
				N:      s.N.Vary(sigma, seed+uint64(op)*131+uint64(i)*17),
				Repeat: s.Repeat,
				in:     s.in,
				out:    s.out,
			})
		}
		die.pipelines[op] = vp
	}
	return die
}

// NumGates returns the total gate count of the unit.
func (f *FPU) NumGates() int {
	var n int
	for _, op := range Ops() {
		n += f.pipelines[op].NumGates()
	}
	return n
}
