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
	"teva/internal/vscale"
)

// The static bound dominates the dynamic arrival: at every operating
// corner and on every die, no instruction's worst DTA arrival may exceed
// the op's worst STA stage delay at the same corner. Slack-pruned DTA
// rests on this bound. STA takes the longest path through every
// gate regardless of which inputs switch; DTA times only the paths one
// transition sensitizes. An arrival past the bound would mean the two
// timing models disagree on a gate's derated delay.

// boundCorners are the corners the bound is checked at: every
// DefaultCorners voltage corner, plus one corner for each other
// delay-increase source of Section VI (temperature, aging, overclocking)
// as a uniform delay derate.
func boundCorners() []cell.Corner {
	m := vscale.Default45nm()
	return append(experiments.DefaultCorners(),
		cell.Corner{Name: "125C", Process: m.TemperatureScale(125)},
		cell.Corner{Name: "aging 7y", Process: m.AgingScale(7)},
		cell.Corner{Name: "1.20x clock", Process: m.OverclockScale(1.2)},
	)
}

// boundDie is one design the bound is checked on, with the op's worst
// STACorner stage delay at every boundCorners corner.
type boundDie struct {
	name  string
	f     *fpu.FPU
	worst [][fpu.NumOps]float64
}

// bounds holds the dies the bound is checked on, the nominal FPU and one
// process-varied die of it, built once per test binary.
var bounds = sync.OnceValue(func() []boundDie {
	f, err := fpu.New(cell.Default(), 0xF00D)
	if err != nil {
		panic(err)
	}
	dies := []boundDie{{name: "nominal", f: f}, {name: "varied die", f: f.Vary(0.04, 1)}}
	for i := range dies {
		d := &dies[i]
		for _, corner := range boundCorners() {
			var worst [fpu.NumOps]float64
			for _, op := range fpu.Ops() {
				for _, r := range d.f.Pipeline(op).STACorner(corner) {
					worst[op] = max(worst[op], r.WorstDelay)
				}
			}
			d.worst = append(d.worst, worst)
		}
	}
	return dies
})

// checkStaticBound analyzes the pairs back to back with eng, asking for
// full records, on every die at every bound corner and returns the
// largest arrival seen.
func checkStaticBound(t *testing.T, op fpu.Op, eng dta.Engine, pairs []dta.Pair) float64 {
	t.Helper()
	var seen float64
	for _, d := range bounds() {
		for ci, corner := range boundCorners() {
			recs, err := dta.AnalyzeStream(context.Background(), d.f, op, corner.Derate(), eng, dta.Full, pairs, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			bound := d.worst[ci][op]
			for i, r := range recs {
				if r.MaxArrivalPS > bound {
					t.Errorf("%s on the %s at %s (%s engine): pair %d (%#x, %#x) arrives at %.2f ps, past the STA bound %.2f ps",
						op, d.name, corner.Label(), eng, i, r.A, r.B, r.MaxArrivalPS, bound)
				}
				seen = max(seen, r.MaxArrivalPS)
			}
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
	n, exact := 1024, 32
	if testing.Short() {
		n, exact = 128, 8
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
		checkStaticBound(t, op, dta.EngineExact, pairs[:exact])
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
