package dta

import (
	"testing"

	"teva/internal/fpu"
)

// TestProbeShardBoundaryAtStress pins the worker-count contract where it
// is hardest to keep: deep stress corners, where a shard's speculative
// warm-up from a cold pipeline captures late values the serial run never
// saw, so the boundary repair has to re-run the shard. Every record, all
// fields, must equal the one-worker stream for every op.
func TestProbeShardBoundaryAtStress(t *testing.T) {
	if testing.Short() {
		t.Skip("shard-boundary stress sweep")
	}
	for _, op := range fpu.Ops() {
		n := 601
		if op == fpu.DDiv || op == fpu.SDiv {
			n = 97 // the iterative divider is ~50x slower to analyze
		}
		pairs := randPairs(op, n, 1)
		for _, scale := range []float64{1.174, 1.256, 1.4} {
			serial := stream(t, testFPU, op, scale, EngineWide, pairs, 1)
			for _, workers := range []int{2, 3, 5, 8, 16} {
				par := stream(t, testFPU, op, scale, EngineWide, pairs, workers)
				for i := range serial {
					if serial[i] != par[i] {
						t.Fatalf("%s scale=%g workers=%d: record %d diverges from the serial stream:\n  serial   %+v\n  parallel %+v",
							op, scale, workers, i, serial[i], par[i])
					}
				}
			}
		}
	}
}
