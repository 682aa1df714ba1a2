package dta

import (
	"context"
	"testing"

	"teva/internal/cell"
	"teva/internal/fpu"
	"teva/internal/prng"
	"teva/internal/vscale"
)

var (
	testFPU   = mustFPU()
	testModel = vscale.Default45nm()
)

func mustFPU() *fpu.FPU {
	f, err := fpu.New(cell.Default(), 0xF00D)
	if err != nil {
		panic(err)
	}
	return f
}

// randPairs draws uniformly random operand encodings for the op.
func randPairs(op fpu.Op, n int, seed uint64) []Pair {
	src := prng.New(seed)
	w := op.OperandWidth()
	mask := ^uint64(0)
	if w < 64 {
		mask = 1<<uint(w) - 1
	}
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{A: src.Uint64() & mask, B: src.Uint64() & mask}
	}
	return pairs
}

// stream runs AnalyzeStream to completion without metrics, computing
// the Outcome record fields.
func stream(t testing.TB, f *fpu.FPU, op fpu.Op, scale float64, eng Engine, pairs []Pair, workers int) []Record {
	t.Helper()
	return streamDetail(t, f, op, scale, eng, Outcome, pairs, workers)
}

// streamDetail is stream computing the record fields detail selects.
func streamDetail(t testing.TB, f *fpu.FPU, op fpu.Op, scale float64, eng Engine, detail Detail, pairs []Pair, workers int) []Record {
	t.Helper()
	recs, err := AnalyzeStream(context.Background(), f, op, scale, eng, detail, pairs, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestNominalVoltageIsErrorFree(t *testing.T) {
	for _, op := range []fpu.Op{fpu.DMul, fpu.DSub, fpu.DAdd, fpu.DI2F, fpu.SF2I} {
		a := New(testFPU, op, testModel.ScaleFor(vscale.Nominal), EngineWide, Outcome)
		for _, p := range randPairs(op, 200, 7) {
			rec := a.Analyze(p)
			if rec.Erroneous() {
				t.Fatalf("%s: timing error at nominal voltage: %+v", op, rec)
			}
			if rec.Golden != op.Golden(p.A, p.B) {
				t.Fatalf("%s: golden mismatch", op)
			}
		}
	}
}

func TestFaultyMatchesMask(t *testing.T) {
	a := New(testFPU, fpu.DMul, testModel.ScaleFor(vscale.VR20), EngineWide, Outcome)
	for _, p := range randPairs(fpu.DMul, 500, 11) {
		rec := a.Analyze(p)
		if rec.Golden^rec.Faulty != rec.Mask {
			t.Fatal("mask is not golden XOR faulty")
		}
	}
}

func TestErrorProfileMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full error-profile sweep")
	}
	// The Figure 7 structure: fp-mul.d is the most error-prone op and
	// fails (rarely) already at VR15; fp-sub.d also fails at VR15;
	// fp-add.d and fp-div.d fail only at VR20; conversions and all
	// single-precision ops never fail at either corner.
	er := func(op fpu.Op, lv vscale.VRLevel, n int) float64 {
		recs := stream(t, testFPU, op, testModel.ScaleFor(lv), EngineWide, randPairs(op, n, 13), 0)
		return Summarize(op, recs).ErrorRatio()
	}
	mul15 := er(fpu.DMul, vscale.VR15, 4000)
	if mul15 == 0 || mul15 > 0.05 {
		t.Errorf("fp-mul.d VR15 ER = %v, want small but nonzero", mul15)
	}
	mul20 := er(fpu.DMul, vscale.VR20, 2000)
	if mul20 <= mul15 {
		t.Errorf("fp-mul.d ER must grow with undervolting: VR15=%v VR20=%v", mul15, mul20)
	}
	sub20 := er(fpu.DSub, vscale.VR20, 2000)
	if sub20 == 0 || sub20 >= mul20 {
		t.Errorf("fp-sub.d VR20 ER = %v, want nonzero and below fp-mul.d's %v", sub20, mul20)
	}
	if add15 := er(fpu.DAdd, vscale.VR15, 2000); add15 != 0 {
		t.Errorf("fp-add.d VR15 ER = %v, want 0", add15)
	}
	if div15 := er(fpu.DDiv, vscale.VR15, 300); div15 != 0 {
		t.Errorf("fp-div.d VR15 ER = %v, want 0", div15)
	}
	if div20 := er(fpu.DDiv, vscale.VR20, 300); div20 == 0 {
		t.Errorf("fp-div.d VR20 ER = 0, want nonzero")
	}
	for _, op := range []fpu.Op{fpu.DI2F, fpu.DF2I, fpu.SMul, fpu.SAdd} {
		if e := er(op, vscale.VR20, 800); e != 0 {
			t.Errorf("%s VR20 ER = %v, want 0", op, e)
		}
	}
}

func TestMantissaBitsMoreErrorProne(t *testing.T) {
	// Figure 8's observation: mantissa bits carry higher BER than
	// exponent bits.
	recs := stream(t, testFPU, fpu.DMul, testModel.ScaleFor(vscale.VR20), EngineWide,
		randPairs(fpu.DMul, 3000, 17), 0)
	sum := Summarize(fpu.DMul, recs)
	ber := sum.BER()
	var mant, exp float64
	for i := 0; i < 52; i++ {
		mant += ber[i]
	}
	mant /= 52
	for i := 52; i < 63; i++ {
		exp += ber[i]
	}
	exp /= 11
	if mant <= exp {
		t.Fatalf("mantissa mean BER %v not above exponent mean BER %v", mant, exp)
	}
}

func TestAnalyzeStreamMatchesSerial(t *testing.T) {
	pairs := randPairs(fpu.DSub, 300, 19)
	serial := stream(t, testFPU, fpu.DSub, testModel.ScaleFor(vscale.VR20), EngineWide, pairs, 1)
	a := New(testFPU, fpu.DSub, testModel.ScaleFor(vscale.VR20), EngineWide, Outcome)
	for i, p := range pairs {
		rec := a.Analyze(p)
		if i == 0 {
			continue // the stream API warms on its first pair too
		}
		if rec.Golden != serial[i].Golden || rec.A != serial[i].A {
			t.Fatalf("stream/serial divergence at %d", i)
		}
	}
	parallel := stream(t, testFPU, fpu.DSub, testModel.ScaleFor(vscale.VR20), EngineWide, pairs, 4)
	for i := range pairs {
		if parallel[i].Golden != serial[i].Golden {
			t.Fatalf("parallel golden mismatch at %d", i)
		}
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Mask: 0},
		{Mask: 0b101}, // 2 flips
		{Mask: 0b1},   // 1 flip
		{Mask: 0},
	}
	s := Summarize(fpu.DAdd, recs)
	if s.Total != 4 || s.Faulty != 2 {
		t.Fatalf("totals wrong: %+v", s)
	}
	if s.ErrorRatio() != 0.5 {
		t.Fatalf("ER = %v", s.ErrorRatio())
	}
	if s.BitErrors[0] != 2 || s.BitErrors[2] != 1 {
		t.Fatalf("bit errors wrong: %v", s.BitErrors)
	}
	if s.FlipHist[1] != 1 || s.FlipHist[2] != 1 {
		t.Fatalf("flip hist wrong: %v", s.FlipHist)
	}
	if s.MultiBitFraction() != 0.5 {
		t.Fatalf("multi-bit fraction %v", s.MultiBitFraction())
	}
	if len(s.Masks) != 2 {
		t.Fatalf("mask pool %v", s.Masks)
	}
	ber := s.BER()
	if ber[0] != 0.5 || ber[2] != 0.25 {
		t.Fatalf("BER %v", ber)
	}
	empty := Summarize(fpu.DAdd, nil)
	if empty.ErrorRatio() != 0 || empty.MultiBitFraction() != 0 {
		t.Fatal("empty summary must be zero")
	}
}

func TestExactEngineAgreesAtNominal(t *testing.T) {
	fast := New(testFPU, fpu.DMul, testModel.ScaleFor(vscale.Nominal), EngineWide, Outcome)
	exact := New(testFPU, fpu.DMul, testModel.ScaleFor(vscale.Nominal), EngineExact, Outcome)
	for _, p := range randPairs(fpu.DMul, 60, 23) {
		rf := fast.Analyze(p)
		re := exact.Analyze(p)
		if rf.Golden != re.Golden || rf.Faulty != re.Faulty {
			t.Fatalf("engines disagree at nominal for %+v", p)
		}
	}
}

func TestExactEngineSeesErrorsUndervolted(t *testing.T) {
	if testing.Short() {
		t.Skip("exact engine is slow")
	}
	recs := stream(t, testFPU, fpu.DMul, testModel.ScaleFor(vscale.VR20), EngineExact,
		randPairs(fpu.DMul, 400, 29), 0)
	if Summarize(fpu.DMul, recs).ErrorRatio() == 0 {
		t.Fatal("exact engine found no VR20 errors in fp-mul.d")
	}
}

func TestWarmAndDeterminism(t *testing.T) {
	pairs := randPairs(fpu.DSub, 100, 31)
	run := func() []Record {
		a := New(testFPU, fpu.DSub, testModel.ScaleFor(vscale.VR20), EngineWide, Outcome)
		a.Warm(pairs[0])
		out := make([]Record, len(pairs))
		for i, p := range pairs {
			out[i] = a.Analyze(p)
		}
		return out
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("DTA not deterministic at %d", i)
		}
	}
}

func TestFastAndExactAgreeOnERMagnitude(t *testing.T) {
	if testing.Short() {
		t.Skip("exact engine is slow")
	}
	// The fast (levelized, old-value) engine is the campaign default; its
	// error ratio must stay within a small factor of the exact
	// (event-driven) engine's on the most error-prone op.
	pairs := randPairs(fpu.DMul, 1200, 41)
	fast := Summarize(fpu.DMul,
		stream(t, testFPU, fpu.DMul, testModel.ScaleFor(vscale.VR20), EngineWide, pairs, 0))
	exact := Summarize(fpu.DMul,
		stream(t, testFPU, fpu.DMul, testModel.ScaleFor(vscale.VR20), EngineExact, pairs, 0))
	if fast.ErrorRatio() == 0 || exact.ErrorRatio() == 0 {
		t.Fatalf("both engines must observe VR20 errors: fast %v exact %v",
			fast.ErrorRatio(), exact.ErrorRatio())
	}
	ratio := fast.ErrorRatio() / exact.ErrorRatio()
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("fast/exact ER ratio %v outside [0.25, 4] (fast %v, exact %v)",
			ratio, fast.ErrorRatio(), exact.ErrorRatio())
	}
}

func TestScaleAccessors(t *testing.T) {
	a := New(testFPU, fpu.DAdd, 1.2, EngineWide, Outcome)
	if a.Op() != fpu.DAdd || a.Scale() != 1.2 {
		t.Fatalf("accessors: %v %v", a.Op(), a.Scale())
	}
}

func TestHigherScaleNeverFewerErrors(t *testing.T) {
	// Error ratios must be monotone in the delay scale.
	pairs := randPairs(fpu.DMul, 1500, 43)
	var prev float64
	for _, scale := range []float64{1.0, 1.15, 1.256, 1.35} {
		recs := stream(t, testFPU, fpu.DMul, scale, EngineWide, pairs, 0)
		er := Summarize(fpu.DMul, recs).ErrorRatio()
		if er+0.02 < prev { // small statistical slack
			t.Fatalf("ER dropped from %v to %v at scale %v", prev, er, scale)
		}
		prev = er
	}
	if prev == 0 {
		t.Fatal("deep stress should produce errors")
	}
}

func TestAnalyzeStreamWorkerCountInvariant(t *testing.T) {
	// Regression: shards used to warm up on their own first pair (a
	// pair→pair self-transition), so shard-boundary records depended on
	// the worker count. Warming each shard with the previous shard's
	// last pair makes the stream byte-identical for any sharding. The
	// pair count is deliberately not a multiple of the worker counts so
	// shard boundaries land mid-stream.
	for _, op := range []fpu.Op{fpu.DMul, fpu.DSub} {
		pairs := randPairs(op, 257, 47)
		serial := stream(t, testFPU, op, testModel.ScaleFor(vscale.VR20), EngineWide, pairs, 1)
		for _, workers := range []int{2, 3, 8} {
			parallel := stream(t, testFPU, op, testModel.ScaleFor(vscale.VR20), EngineWide, pairs, workers)
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("%s: workers=%d diverges from serial at record %d:\n  serial   %+v\n  parallel %+v",
						op, workers, i, serial[i], parallel[i])
				}
			}
		}
	}
}
