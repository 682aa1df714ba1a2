package dta

import (
	"fmt"
	"testing"

	"teva/internal/fpu"
)

func TestProbeShardBoundaryAtStress(t *testing.T) {
	if testing.Short() {
		t.Skip("shard-boundary stress probe")
	}
	for _, scale := range []float64{1.15, 1.25, 1.4} {
		pairs := randPairs(fpu.DMul, 601, 47)
		serial := stream(t, testFPU, fpu.DMul, scale, EngineWide, pairs, 1)
		errs := 0
		for _, r := range serial {
			if r.Erroneous() {
				errs++
			}
		}
		diverged := 0
		for _, workers := range []int{2, 3, 5, 8} {
			par := stream(t, testFPU, fpu.DMul, scale, EngineWide, pairs, workers)
			for i := range serial {
				if serial[i] != par[i] {
					diverged++
					fmt.Printf("scale=%g workers=%d record %d diverges\n", scale, workers, i)
					break
				}
			}
		}
		fmt.Printf("scale=%g: %d/%d erroneous, diverged in %d/4 worker configs\n", scale, errs, len(pairs), diverged)
	}
}
