package dta

import (
	"fmt"
	"math"
	"testing"
	"time"

	"teva/internal/cell"
	"teva/internal/fpu"
	"teva/internal/prng"
	"teva/internal/vscale"
)

func TestCalibrationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	f, err := fpu.New(cell.Default(), 0xF00D)
	if err != nil {
		t.Fatal(err)
	}
	m := vscale.Default45nm()
	src := prng.New(42)
	mkPairs := func(op fpu.Op, n int) []Pair {
		pairs := make([]Pair, n)
		for i := range pairs {
			if op.OperandWidth() == 32 && op != fpu.DF2I {
				pairs[i] = Pair{A: uint64(src.Uint32()), B: uint64(src.Uint32())}
			} else {
				w := op.OperandWidth()
				mask := uint64(1)<<uint(w) - 1
				if w == 64 {
					mask = ^uint64(0)
				}
				pairs[i] = Pair{A: src.Uint64() & mask, B: src.Uint64() & mask}
			}
		}
		return pairs
	}
	for _, op := range []fpu.Op{fpu.DMul, fpu.DSub, fpu.DAdd, fpu.DDiv, fpu.DI2F, fpu.SMul} {
		n := 3000
		if op == fpu.DDiv {
			n = 600
		}
		pairs := mkPairs(op, n)
		for _, lv := range []vscale.VRLevel{vscale.VR15, vscale.VR20} {
			start := time.Now()
			recs := streamDetail(t, f, op, m.ScaleFor(lv), EngineWide, Full, pairs, 0)
			sum := Summarize(op, recs)
			var maxArr, meanArr float64
			for _, r := range recs {
				maxArr = math.Max(maxArr, r.MaxArrivalPS)
				meanArr += r.MaxArrivalPS
			}
			meanArr /= float64(len(recs))
			fmt.Printf("%-9s %-5s ER=%.4f multi=%.2f meanArr=%.0f maxArr=%.0f deadline=%.0f (%.1fs)\n",
				op, lv.Name, sum.ErrorRatio(), sum.MultiBitFraction(), meanArr, maxArr,
				f.CLK-35*m.ScaleFor(lv), time.Since(start).Seconds())
		}
	}
}
