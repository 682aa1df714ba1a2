package dta_test

import (
	"context"
	"sync"
	"testing"

	"teva/internal/cell"
	"teva/internal/dta"
	"teva/internal/experiments"
	"teva/internal/fpu"
	"teva/internal/prng"
)

// The static bound dominates the dynamic arrival: at every operating
// corner, no instruction's worst DTA arrival may exceed the op's worst STA
// stage delay at the same corner. STA takes the longest path through every
// gate regardless of which inputs switch; DTA times only the paths one
// transition sensitizes. An arrival past the bound would mean the two
// timing models disagree on a gate's derated delay.

// bounds holds the shared FPU and, per corner and op, the worst
// STACorner stage delay, built once per test binary.
var bounds = sync.OnceValues(func() (*fpu.FPU, [][]float64) {
	f, err := fpu.New(cell.Default(), 0xF00D)
	if err != nil {
		panic(err)
	}
	corners := experiments.DefaultCorners()
	worst := make([][]float64, len(corners))
	for ci, corner := range corners {
		worst[ci] = make([]float64, fpu.NumOps)
		for _, op := range fpu.Ops() {
			for _, r := range f.Pipeline(op).STACorner(corner) {
				worst[ci][op] = max(worst[ci][op], r.WorstDelay)
			}
		}
	}
	return f, worst
})

// checkStaticBound analyzes the pairs back to back with eng at every
// default corner and returns the largest arrival seen.
func checkStaticBound(t *testing.T, op fpu.Op, eng dta.Engine, pairs []dta.Pair) float64 {
	t.Helper()
	f, worst := bounds()
	var seen float64
	for ci, corner := range experiments.DefaultCorners() {
		recs, err := dta.AnalyzeStream(context.Background(), f, op, corner.Derate(), eng, pairs, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if r.MaxArrivalPS > worst[ci][op] {
				t.Errorf("%s at %s (%s engine): pair %d (%#x, %#x) arrives at %.2f ps, past the STA bound %.2f ps",
					op, corner.Label(), eng, i, r.A, r.B, r.MaxArrivalPS, worst[ci][op])
			}
			seen = max(seen, r.MaxArrivalPS)
		}
	}
	return seen
}

// operandMask keeps the op's operand width.
func operandMask(op fpu.Op) uint64 {
	if w := op.OperandWidth(); w < 64 {
		return 1<<uint(w) - 1
	}
	return ^uint64(0)
}

func TestStaticBoundsDynamic(t *testing.T) {
	n := 1024
	if testing.Short() {
		n = 128
	}
	src := prng.New(0x57A)
	for _, op := range fpu.Ops() {
		mask := operandMask(op)
		pairs := make([]dta.Pair, n)
		for i := range pairs {
			pairs[i] = dta.Pair{A: src.Uint64() & mask, B: src.Uint64() & mask}
		}
		if seen := checkStaticBound(t, op, dta.EngineWide, pairs); seen <= 0 {
			t.Errorf("%s: no arrival recorded; the property holds vacuously", op)
		}
		// The glitch-accurate engine times the same transitions with
		// inertial delays; it is much slower, so it sees a prefix.
		checkStaticBound(t, op, dta.EngineExact, pairs[:32])
	}
}

// FuzzStaticBoundsDynamic checks the bound on any two back-to-back
// instructions of any op: the first sets the pipeline history, the second
// is timed from it.
func FuzzStaticBoundsDynamic(f *testing.F) {
	for _, op := range fpu.Ops() {
		f.Add(uint8(op), uint64(0), uint64(0), ^uint64(0), ^uint64(0))
		f.Add(uint8(op), uint64(0x3FF0000000000000), uint64(0x3F800000), uint64(0x8000000000000001), uint64(0x7FF8000000000000))
	}
	f.Fuzz(func(t *testing.T, opb uint8, a0, b0, a1, b1 uint64) {
		op := fpu.Op(opb % uint8(fpu.NumOps))
		m := operandMask(op)
		checkStaticBound(t, op, dta.EngineWide, []dta.Pair{{A: a0 & m, B: b0 & m}, {A: a1 & m, B: b1 & m}})
	})
}
