package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleSizePaperValue(t *testing.T) {
	// The paper runs 1068 executions per benchmark/VR for a 3% error
	// margin at 95% confidence (Leveugle et al.).
	if n := SampleSize(Z95, 0.03); n != 1068 {
		t.Fatalf("SampleSize(1.96, 0.03) = %d, want 1068", n)
	}
}

func TestSampleSizeMonotonic(t *testing.T) {
	if SampleSize(Z95, 0.01) <= SampleSize(Z95, 0.03) {
		t.Fatal("tighter margin should need more samples")
	}
	if SampleSize(2.58, 0.03) <= SampleSize(Z95, 0.03) {
		t.Fatal("higher confidence should need more samples")
	}
}

func TestProportion(t *testing.T) {
	p := Proportion{Successes: 25, Trials: 100}
	if p.Value() != 0.25 {
		t.Fatalf("Value = %v", p.Value())
	}
	lo, hi := p.Wilson(Z95)
	if lo >= p.Value() || hi <= p.Value() {
		t.Fatalf("Wilson interval [%v, %v] does not bracket %v", lo, hi, p.Value())
	}
	if lo < 0 || hi > 1 {
		t.Fatalf("Wilson interval out of [0,1]: [%v, %v]", lo, hi)
	}
}

func TestProportionEdgeCases(t *testing.T) {
	empty := Proportion{}
	if empty.Value() != 0 {
		t.Fatal("empty proportion should be zero")
	}
	zero := Proportion{Successes: 0, Trials: 50}
	lo, hi := zero.Wilson(Z95)
	if lo != 0 || hi <= 0 {
		t.Fatalf("Wilson for 0/50 = [%v, %v]", lo, hi)
	}
	all := Proportion{Successes: 50, Trials: 50}
	lo, hi = all.Wilson(Z95)
	if hi != 1 || lo >= 1 {
		t.Fatalf("Wilson for 50/50 = [%v, %v]", lo, hi)
	}
}

func TestMeanMedianStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 2.5 {
		t.Fatalf("Median = %v", Median(xs))
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty-input aggregates should be zero")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("GeoMean = %v want 10", g)
	}
	if g := GeoMean([]float64{0, 4, 0}); g != 4 {
		t.Fatalf("GeoMean skipping non-positive = %v want 4", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean of empty should be 0")
	}
}

func TestFoldRatioSymmetric(t *testing.T) {
	if err := quick.Check(func(a, b uint16) bool {
		x, y := float64(a)+1, float64(b)+1
		f1 := FoldRatio(x, y, 1e-9)
		f2 := FoldRatio(y, x, 1e-9)
		return f1 == f2 && f1 >= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFoldRatioFloor(t *testing.T) {
	if f := FoldRatio(0, 1e-3, 1e-6); math.Abs(f-1000) > 1e-9 {
		t.Fatalf("FoldRatio(0, 1e-3) with 1e-6 floor = %v, want 1000", f)
	}
	if f := FoldRatio(0, 0, 1e-6); f != 1 {
		t.Fatalf("FoldRatio(0,0) = %v, want 1", f)
	}
}

func TestAbsError(t *testing.T) {
	if AbsError(10, 9) != 0.1 {
		t.Fatal("AbsError basic")
	}
	if AbsError(0, 0) != 0 {
		t.Fatal("AbsError(0,0)")
	}
	if AbsError(0, 5) != 1 {
		t.Fatal("AbsError(0,x)")
	}
	mae := MeanAbsError([]float64{10, 20}, []float64{9, 22})
	if math.Abs(mae-0.1) > 1e-12 {
		t.Fatalf("MeanAbsError = %v", mae)
	}
}

// TestWilsonBracketsFraction is the interval contract as a property:
// 0 <= lo <= k/n <= hi <= 1 for every tally, exercised over the exact
// degenerate corners (n=0, k=0, k=n, n=1) and a quick.Check sweep. The
// k=0 and k=n corners are the floating-point traps: sqrt(z^2/(4n^2)) is
// not exactly z/(2n), so without clamping lo can land ~1e-17 above 0.
func TestWilsonBracketsFraction(t *testing.T) {
	check := func(k, n int) {
		p := Proportion{Successes: k, Trials: n}
		lo, hi := p.Wilson(Z95)
		v := p.Value()
		if !(0 <= lo && lo <= v && v <= hi && hi <= 1) {
			t.Fatalf("Wilson(%d/%d) = [%v, %v] does not bracket %v", k, n, lo, hi, v)
		}
	}
	for _, c := range []struct{ k, n int }{
		{0, 0}, {0, 1}, {1, 1}, {0, 2}, {2, 2}, {0, 50}, {50, 50},
		{0, 1068}, {1068, 1068}, {1, 1068}, {1067, 1068},
	} {
		check(c.k, c.n)
	}
	prop := func(k, n uint16) bool {
		trials := int(n) % 4096
		succ := 0
		if trials > 0 {
			succ = int(k) % (trials + 1)
		}
		p := Proportion{Successes: succ, Trials: trials}
		lo, hi := p.Wilson(Z95)
		v := p.Value()
		return 0 <= lo && lo <= v && v <= hi && hi <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
