package dta

import (
	"context"
	"errors"
	"testing"

	"teva/internal/fpu"
	"teva/internal/guard"
	"teva/internal/vscale"
)

func TestAnalyzeStreamCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs := randPairs(fpu.DMul, 2*cancelChunk, 7)
	recs, err := AnalyzeStream(ctx, testFPU, fpu.DMul,
		testModel.ScaleFor(vscale.VR20), EngineWide, pairs, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(recs) != len(pairs) {
		t.Fatalf("record slice length %d", len(recs))
	}
	for i, r := range recs {
		if r.A != 0 || r.B != 0 || r.Golden != 0 {
			t.Fatalf("record %d analyzed after cancellation: %+v", i, r)
		}
	}
}

func TestAnalyzeStreamCtxMatchesUncanceledPath(t *testing.T) {
	pairs := randPairs(fpu.DAdd, 700, 3)
	scale := testModel.ScaleFor(vscale.VR20)
	want := stream(t, testFPU, fpu.DAdd, scale, EngineWide, pairs, 1)
	got, err := AnalyzeStream(context.Background(), testFPU, fpu.DAdd, scale, EngineWide, pairs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("record %d diverges under ctx path: %+v vs %+v", i, want[i], got[i])
		}
	}
}

// TestAnalyzeStreamShardPanicIsAnError: a panicking shard (here, an op
// with no pipeline) is recovered at the shard boundary and returned as a
// *guard.PanicError instead of killing the process.
func TestAnalyzeStreamShardPanicIsAnError(t *testing.T) {
	pairs := randPairs(fpu.DMul, 8, 5)
	_, err := AnalyzeStream(context.Background(), testFPU, fpu.Op(fpu.NumOps),
		1.0, EngineWide, pairs, 2, nil)
	if !guard.IsPanic(err) {
		t.Fatalf("want a *guard.PanicError, got %v", err)
	}
}
