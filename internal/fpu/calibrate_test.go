package fpu

import (
	"math"
	"reflect"
	"testing"

	"teva/internal/cell"
	"teva/internal/sta"
)

// rebuildCalibrated is the whole-op calibration New replaced, kept as the
// oracle for its staged form: every iteration rebuilds all of the op's
// stages at the current pads and analyzes every one of them.
func rebuildCalibrated(op Op, lib *cell.Library, seed uint64) (*Pipeline, error) {
	plan, padded := padPlan[op]
	var mantPad, roundPad float64
	var p *Pipeline
	for iter := 0; iter < 4; iter++ {
		in, specs := opSpecs(op, mantPad, roundPad)
		var err error
		if p, err = compile(op, lib, opSeed(op, seed), in, specs); err != nil {
			return nil, err
		}
		if !padded {
			break
		}
		mi, ri := criticalStageIndexes(op)
		reports := p.STA()
		dm := plan.mant*DefaultCLK - reports[mi].WorstDelay
		dr := plan.round*DefaultCLK - reports[ri].WorstDelay
		if math.Abs(dm) < 0.5 && math.Abs(dr) < 0.5 {
			break
		}
		mantPad = math.Max(0, mantPad+dm)
		roundPad = math.Max(0, roundPad+dr)
	}
	return p, nil
}

// TestStagedCalibrationMatchesRebuild checks that rebuilding only the
// padded stages yields the design the whole-op rebuild did: per stage,
// the same compiled netlist (gates, nets, delays, I/O) and bit-identical
// STA worst delay, with the clock still set at DefaultCLK.
func TestStagedCalibrationMatchesRebuild(t *testing.T) {
	lib := cell.Default()
	seeds := []uint64{0xF00D, 1, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		f, err := New(lib, seed)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		//teva:allow floateq -- calibration must pin the clock exactly
		if clk := f.ClockPeriod(); clk != DefaultCLK {
			t.Errorf("seed %#x: ClockPeriod %v, want %v", seed, clk, float64(DefaultCLK))
		}
		for _, op := range Ops() {
			want, err := rebuildCalibrated(op, lib, seed)
			if err != nil {
				t.Fatalf("seed %#x %s: %v", seed, op, err)
			}
			got := f.Pipeline(op)
			if len(got.Stages) != len(want.Stages) {
				t.Fatalf("seed %#x %s: %d stages, want %d", seed, op, len(got.Stages), len(want.Stages))
			}
			gr, wr := got.STA(), want.STA()
			for i, s := range got.Stages {
				w := want.Stages[i]
				if s.Name != w.Name || s.Repeat != w.Repeat || !s.in.equal(w.in) || !s.out.equal(w.out) {
					t.Errorf("seed %#x %s stage %d: shape %s×%d, want %s×%d", seed, op, i, s.Name, s.Repeat, w.Name, w.Repeat)
				}
				if !reflect.DeepEqual(s.N.Compiled(), w.N.Compiled()) {
					t.Errorf("seed %#x %s stage %s: compiled netlist differs from the whole-op rebuild", seed, op, s.Name)
				}
				if g, w := math.Float64bits(gr[i].WorstDelay), math.Float64bits(wr[i].WorstDelay); g != w {
					t.Errorf("seed %#x %s stage %s: WorstDelay %v, want %v", seed, op, s.Name, gr[i].WorstDelay, wr[i].WorstDelay)
				}
			}
		}
	}
}

// TestKeptStageDelaysMatchSTA checks the stage delays New keeps: each one
// equals a fresh nominal STA of its stage bit for bit, the rebuilt padded
// stages included. A Vary'd die keeps none, so its StageDelays and
// WorstStageDelay come from STA over its own netlists.
func TestKeptStageDelaysMatchSTA(t *testing.T) {
	lib := cell.Default()
	seeds := []uint64{0xF00D, 1, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		f, err := New(lib, seed)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		for _, op := range Ops() {
			p := f.Pipeline(op)
			if len(p.delays) != len(p.Stages) {
				t.Fatalf("seed %#x %s: %d kept delays for %d stages", seed, op, len(p.delays), len(p.Stages))
			}
			for i, s := range p.Stages {
				want := sta.Analyze(s.N.Compiled(), lib.ClockToQ, lib.Setup).WorstDelay
				if got := p.StageDelays()[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("seed %#x %s stage %s: kept delay %v, STA %v", seed, op, s.Name, got, want)
				}
			}
		}

		die := f.Vary(0.05, 3)
		for _, op := range Ops() {
			p := die.Pipeline(op)
			if p.delays != nil {
				t.Fatalf("seed %#x %s: varied die inherited nominal delays", seed, op)
			}
			var worst float64
			for i, s := range p.Stages {
				want := sta.Analyze(s.N.Compiled(), lib.ClockToQ, lib.Setup).WorstDelay
				if got := p.StageDelays()[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("seed %#x die %s stage %s: delay %v, STA %v", seed, op, s.Name, got, want)
				}
				worst = max(worst, want)
			}
			if got, _ := p.WorstStageDelay(); math.Float64bits(got) != math.Float64bits(worst) {
				t.Errorf("seed %#x die %s: WorstStageDelay %v, STA %v", seed, op, got, worst)
			}
		}
	}
}
