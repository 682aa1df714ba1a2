package dta

import (
	"bytes"
	"encoding/json"
	"testing"

	"teva/internal/fpu"
	"teva/internal/vscale"
)

// TestEngineAndLaneCountInvariance is the batching contract: the wide
// engine asked for Full records must produce records identical to a
// serial walk on the scalar levelized engine (timingsim.FastSim) —
// Golden, Faulty, Mask, and bit-exact MaxArrivalPS and EnergyFJ — for
// every batch granularity and worker fan-out, because the lane-shift
// carry replays the exact serial transition history regardless of how
// the stream is chopped. A failure here means batch boundaries leak into
// results.
func TestEngineAndLaneCountInvariance(t *testing.T) {
	for _, op := range []fpu.Op{fpu.DAdd, fpu.DMul} {
		pairs := randPairs(op, 200, 0xC0FFEE)
		scale := testModel.ScaleFor(vscale.VR20)

		// Serial scalar reference: one pair at a time.
		ref := make([]Record, len(pairs))
		newFastReference(testFPU, op, scale).AnalyzeBatch(pairs, ref)

		// Wide engine at varying batch sizes (lane occupancies 1..64).
		for _, batch := range []int{1, 4, 64} {
			w := New(testFPU, op, scale, EngineWide, Full)
			got := make([]Record, len(pairs))
			for lo := 0; lo < len(pairs); lo += batch {
				hi := min(lo+batch, len(pairs))
				w.AnalyzeBatch(pairs[lo:hi], got[lo:hi])
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: wide batch=%d diverges at record %d:\n  fast %+v\n  wide %+v",
						op, batch, i, ref[i], got[i])
				}
			}
		}

		// Full stream path at varying worker counts.
		for _, workers := range []int{1, 4, 64} {
			got := streamDetail(t, testFPU, op, scale, EngineWide, Full, pairs, workers)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: workers=%d diverges at record %d:\n  ref %+v\n  got %+v",
						op, workers, i, ref[i], got[i])
				}
			}
		}
	}
}

// TestAnalyzeBatchSteadyStateAllocs pins the DTA hot loop's
// zero-allocation invariant: once an analyzer is warm, streaming batches
// through it allocates nothing for the pruned wide engine (walking, or
// skipping the walk for an op that cannot be late), the full wide engine
// or the scalar exact engine.
func TestAnalyzeBatchSteadyStateAllocs(t *testing.T) {
	scale := testModel.ScaleFor(vscale.VR20)
	for _, c := range []struct {
		op     fpu.Op
		eng    Engine
		detail Detail
		n      int
	}{
		{fpu.DAdd, EngineWide, Outcome, 64},
		{fpu.SI2F, EngineWide, Outcome, 64},
		{fpu.DAdd, EngineWide, Full, 64},
		{fpu.DAdd, EngineExact, Outcome, 4},
	} {
		pairs := randPairs(c.op, c.n, 0xA110C)
		recs := make([]Record, len(pairs))
		a := New(testFPU, c.op, scale, c.eng, c.detail)
		a.AnalyzeBatch(pairs, recs) // warm: history primed, buffers touched
		avg := testing.AllocsPerRun(20, func() {
			a.AnalyzeBatch(pairs, recs)
		})
		if avg != 0 {
			t.Errorf("%s engine=%s detail=%d: AnalyzeBatch allocates %.1f objects per call, want 0", c.op, c.eng, c.detail, avg)
		}
	}
}

// TestEmptyStreamSummaryDeterministic guards the degenerate no-records
// path: summarizing an empty stream must not divide by zero (NaN ratios
// would poison downstream JSON) and must serialize byte-identically run
// to run.
func TestEmptyStreamSummaryDeterministic(t *testing.T) {
	recs := stream(t, testFPU, fpu.DAdd, testModel.ScaleFor(vscale.VR20), EngineWide, nil, 4)
	if len(recs) != 0 {
		t.Fatalf("empty stream produced %d records", len(recs))
	}
	s := Summarize(fpu.DAdd, recs)
	if got := s.ErrorRatio(); got != 0 {
		t.Errorf("empty ErrorRatio = %v, want 0", got)
	}
	if got := s.MultiBitFraction(); got != 0 {
		t.Errorf("empty MultiBitFraction = %v, want 0", got)
	}
	for i, b := range s.BER() {
		if b != 0 {
			t.Errorf("empty BER[%d] = %v, want 0", i, b)
		}
	}
	first, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(Summarize(fpu.DAdd, stream(t, testFPU, fpu.DAdd, testModel.ScaleFor(vscale.VR20), EngineWide, nil, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("empty-stream summaries not byte-identical:\n%s\n%s", first, again)
	}
}
