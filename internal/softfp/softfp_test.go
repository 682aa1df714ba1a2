package softfp

import (
	"math"
	"testing"
	"testing/quick"

	"teva/internal/prng"
)

// isDenorm64 reports whether the encoding is a nonzero denormal.
func isDenorm64(bits uint64) bool {
	return bits&0x7ff0000000000000 == 0 && bits&0xfffffffffffff != 0
}

func isDenorm32(bits uint32) bool {
	return bits&0x7f800000 == 0 && bits&0x7fffff != 0
}

// check64 compares a softfp binary64 result against the native value,
// treating any-NaN-vs-any-NaN as equal and skipping cases where FTZ
// legitimately deviates (denormal inputs or denormal native result).
func check64(t *testing.T, op string, a, b float64, got uint64, want float64) {
	t.Helper()
	if isDenorm64(math.Float64bits(a)) || isDenorm64(math.Float64bits(b)) ||
		isDenorm64(math.Float64bits(want)) {
		return
	}
	wb := math.Float64bits(want)
	if Binary64.IsNaNBits(got) && Binary64.IsNaNBits(wb) {
		return
	}
	if got != wb {
		t.Fatalf("%s(%g, %g) = %016x, want %016x (%g)", op, a, b, got, wb, want)
	}
}

func check32(t *testing.T, op string, a, b float32, got uint64, want float32) {
	t.Helper()
	if isDenorm32(math.Float32bits(a)) || isDenorm32(math.Float32bits(b)) ||
		isDenorm32(math.Float32bits(want)) {
		return
	}
	wb := uint64(math.Float32bits(want))
	if Binary32.IsNaNBits(got) && Binary32.IsNaNBits(wb) {
		return
	}
	if got != wb {
		t.Fatalf("%s(%g, %g) = %08x, want %08x (%g)", op, a, b, got, wb, want)
	}
}

// interestingF64 yields a stream mixing random bit patterns with directed
// special values and magnitude-correlated pairs (to exercise alignment and
// cancellation).
func interestingF64(src *prng.Source) float64 {
	switch src.Intn(10) {
	case 0:
		specials := []float64{0, math.Copysign(0, -1), 1, -1, 2, 0.5,
			math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64,
			-math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 1e300, math.Pi}
		return specials[src.Intn(len(specials))]
	case 1, 2:
		// Small-exponent-difference values: heavy cancellation.
		return (src.Float64() - 0.5) * 4
	case 3:
		return math.Float64frombits(src.Uint64() & 0x800fffffffffffff) // denormal/zero
	default:
		return math.Float64frombits(src.Uint64())
	}
}

func interestingF32(src *prng.Source) float32 {
	switch src.Intn(8) {
	case 0:
		specials := []float32{0, float32(math.Copysign(0, -1)), 1, -1,
			float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
			math.MaxFloat32, math.SmallestNonzeroFloat32}
		return specials[src.Intn(len(specials))]
	case 1, 2:
		return (float32(src.Float64()) - 0.5) * 4
	default:
		return math.Float32frombits(src.Uint32())
	}
}

func TestAdd64AgainstNative(t *testing.T) {
	src := prng.New(101)
	for i := 0; i < 200000; i++ {
		a, b := interestingF64(src), interestingF64(src)
		got, _ := Binary64.Add(math.Float64bits(a), math.Float64bits(b))
		check64(t, "add", a, b, got, a+b)
	}
}

func TestSub64AgainstNative(t *testing.T) {
	src := prng.New(102)
	for i := 0; i < 200000; i++ {
		a, b := interestingF64(src), interestingF64(src)
		got, _ := Binary64.Sub(math.Float64bits(a), math.Float64bits(b))
		check64(t, "sub", a, b, got, a-b)
	}
}

func TestMul64AgainstNative(t *testing.T) {
	src := prng.New(103)
	for i := 0; i < 200000; i++ {
		a, b := interestingF64(src), interestingF64(src)
		got, _ := Binary64.Mul(math.Float64bits(a), math.Float64bits(b))
		check64(t, "mul", a, b, got, a*b)
	}
}

func TestDiv64AgainstNative(t *testing.T) {
	src := prng.New(104)
	for i := 0; i < 50000; i++ {
		a, b := interestingF64(src), interestingF64(src)
		got, _ := Binary64.Div(math.Float64bits(a), math.Float64bits(b))
		check64(t, "div", a, b, got, a/b)
	}
}

func TestAdd32AgainstNative(t *testing.T) {
	src := prng.New(105)
	for i := 0; i < 200000; i++ {
		a, b := interestingF32(src), interestingF32(src)
		got, _ := Binary32.Add(uint64(math.Float32bits(a)), uint64(math.Float32bits(b)))
		check32(t, "add32", a, b, got, a+b)
	}
}

func TestSub32AgainstNative(t *testing.T) {
	src := prng.New(106)
	for i := 0; i < 200000; i++ {
		a, b := interestingF32(src), interestingF32(src)
		got, _ := Binary32.Sub(uint64(math.Float32bits(a)), uint64(math.Float32bits(b)))
		check32(t, "sub32", a, b, got, a-b)
	}
}

func TestMul32AgainstNative(t *testing.T) {
	src := prng.New(107)
	for i := 0; i < 200000; i++ {
		a, b := interestingF32(src), interestingF32(src)
		got, _ := Binary32.Mul(uint64(math.Float32bits(a)), uint64(math.Float32bits(b)))
		check32(t, "mul32", a, b, got, a*b)
	}
}

func TestDiv32AgainstNative(t *testing.T) {
	src := prng.New(108)
	for i := 0; i < 50000; i++ {
		a, b := interestingF32(src), interestingF32(src)
		got, _ := Binary32.Div(uint64(math.Float32bits(a)), uint64(math.Float32bits(b)))
		check32(t, "div32", a, b, got, a/b)
	}
}

func TestQuickAddCommutes(t *testing.T) {
	if err := quick.Check(func(a, b uint64) bool {
		r1, _ := Binary64.Add(a, b)
		r2, _ := Binary64.Add(b, a)
		return r1 == r2
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulCommutes(t *testing.T) {
	if err := quick.Check(func(a, b uint64) bool {
		r1, _ := Binary64.Mul(a, b)
		r2, _ := Binary64.Mul(b, a)
		return r1 == r2
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubSelfIsZero(t *testing.T) {
	if err := quick.Check(func(a uint64) bool {
		u := Binary64.unpack(a)
		if u.isNaN(Binary64) || u.isInf(Binary64) {
			return true
		}
		r, _ := Binary64.Sub(a, a)
		return r == Binary64.Zero(0) || (u.isZero(Binary64) && r>>63 <= 1)
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecialCases(t *testing.T) {
	f := Binary64
	inf := math.Float64bits(math.Inf(1))
	ninf := math.Float64bits(math.Inf(-1))
	one := math.Float64bits(1)
	zero := uint64(0)
	nzero := uint64(1) << 63

	if r, fl := f.Add(inf, ninf); !f.IsNaNBits(r) || !fl.Has(FlagInvalid) {
		t.Fatal("inf + -inf must be invalid NaN")
	}
	if r, _ := f.Add(inf, one); r != inf {
		t.Fatal("inf + 1 must be inf")
	}
	if r, fl := f.Mul(inf, zero); !f.IsNaNBits(r) || !fl.Has(FlagInvalid) {
		t.Fatal("inf * 0 must be invalid NaN")
	}
	if r, fl := f.Div(one, zero); r != inf || !fl.Has(FlagDivZero) {
		t.Fatal("1/0 must be +inf with divzero")
	}
	if r, fl := f.Div(one, nzero); r != ninf || !fl.Has(FlagDivZero) {
		t.Fatal("1/-0 must be -inf with divzero")
	}
	if r, fl := f.Div(zero, zero); !f.IsNaNBits(r) || !fl.Has(FlagInvalid) {
		t.Fatal("0/0 must be invalid NaN")
	}
	if r, fl := f.Div(inf, inf); !f.IsNaNBits(r) || !fl.Has(FlagInvalid) {
		t.Fatal("inf/inf must be invalid NaN")
	}
	if r, _ := f.Add(nzero, nzero); r != nzero {
		t.Fatal("-0 + -0 must be -0")
	}
	if r, _ := f.Add(zero, nzero); r != zero {
		t.Fatal("0 + -0 must be +0")
	}
}

func TestOverflowToInf(t *testing.T) {
	f := Binary64
	max := math.Float64bits(math.MaxFloat64)
	r, fl := f.Mul(max, max)
	if r != f.Inf(0) || !fl.Has(FlagOverflow) {
		t.Fatalf("max*max = %x flags %b", r, fl)
	}
	r, fl = f.Add(max, max)
	if r != f.Inf(0) || !fl.Has(FlagOverflow) {
		t.Fatalf("max+max = %x flags %b", r, fl)
	}
}

func TestUnderflowFlushesToZero(t *testing.T) {
	f := Binary64
	tiny := math.Float64bits(1e-300)
	r, fl := f.Mul(tiny, tiny)
	if r != f.Zero(0) || !fl.Has(FlagUnderflow) {
		t.Fatalf("tiny*tiny = %x flags %b", r, fl)
	}
	ntiny := math.Float64bits(-1e-300)
	r, _ = f.Mul(tiny, ntiny)
	if r != f.Zero(1) {
		t.Fatalf("underflow sign lost: %x", r)
	}
}

func TestDenormalInputsFlushed(t *testing.T) {
	f := Binary64
	den := uint64(0x000fffffffffffff) // largest denormal
	one := math.Float64bits(1)
	r, _ := f.Add(den, one)
	if r != one {
		t.Fatalf("denormal input not flushed: %x", r)
	}
}

func TestFromInt32(t *testing.T) {
	src := prng.New(110)
	cases := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 42, -1000000}
	for i := 0; i < 100000; i++ {
		var x int32
		if i < len(cases) {
			x = cases[i]
		} else {
			x = int32(src.Uint32())
		}
		got, _ := Binary64.FromInt32(x)
		if want := math.Float64bits(float64(x)); got != want {
			t.Fatalf("FromInt32_64(%d) = %x want %x", x, got, want)
		}
		got32, _ := Binary32.FromInt32(x)
		if want := uint64(math.Float32bits(float32(x))); got32 != want {
			t.Fatalf("FromInt32_32(%d) = %x want %x", x, got32, want)
		}
	}
}

func TestToInt32(t *testing.T) {
	src := prng.New(111)
	for i := 0; i < 100000; i++ {
		a := interestingF64(src)
		got, _ := Binary64.ToInt32(math.Float64bits(a))
		var want int32
		switch {
		case math.IsNaN(a):
			want = 0
		case a >= math.MaxInt32:
			want = math.MaxInt32
		case a <= math.MinInt32:
			want = math.MinInt32
		default:
			want = int32(a) // Go truncates toward zero
		}
		if got != want {
			t.Fatalf("ToInt32(%g) = %d want %d", a, got, want)
		}
	}
}

func TestToInt32RoundTrip(t *testing.T) {
	if err := quick.Check(func(x int32) bool {
		f, _ := Binary64.FromInt32(x)
		back, _ := Binary64.ToInt32(f)
		return back == x
	}, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatHelpers(t *testing.T) {
	if Binary64.Width() != 64 || Binary32.Width() != 32 {
		t.Fatal("widths wrong")
	}
	if !Binary64.IsNaNBits(Binary64.QNaN()) {
		t.Fatal("QNaN not NaN")
	}
	if Binary64.IsNaNBits(Binary64.Inf(0)) {
		t.Fatal("Inf is not NaN")
	}
	if math.Float64frombits(Binary64.QNaN()) == math.Float64frombits(Binary64.QNaN()) {
		t.Fatal("QNaN must not compare equal to itself as a float")
	}
}

func TestFlagsInexact(t *testing.T) {
	f := Binary64
	third, fl := f.Div(math.Float64bits(1), math.Float64bits(3))
	if !fl.Has(FlagInexact) {
		t.Fatal("1/3 must be inexact")
	}
	if third != math.Float64bits(1.0/3.0) {
		t.Fatal("1/3 value wrong")
	}
	_, fl = f.Add(math.Float64bits(1), math.Float64bits(1))
	if fl.Has(FlagInexact) {
		t.Fatal("1+1 must be exact")
	}
}
