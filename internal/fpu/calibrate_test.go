package fpu

import (
	"math"
	"reflect"
	"testing"

	"teva/internal/cell"
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
