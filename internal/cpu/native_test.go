package cpu

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"teva/internal/fpu"
	"teva/internal/prng"
	"teva/internal/softfp"
)

// operandMask is what execFPUDatapath keeps of each source operand.
func operandMask(op fpu.Op) uint64 {
	if op.Double() {
		return ^uint64(0)
	}
	return 0xffffffff
}

// checkNative requires that wherever nativeFP accepts (a, b), its result
// is softfp's bit for bit and softfp raised no invalid, so that
// goldenWithFlags always returns softfp's result and flag. It reports
// whether nativeFP accepted.
func checkNative(t *testing.T, op fpu.Op, a, b uint64) bool {
	t.Helper()
	a &= operandMask(op)
	b &= operandMask(op)
	want, wantInvalid := softfpWithFlags(op, a, b)
	got, ok := nativeFP(op, a, b)
	if ok && (got != want || wantInvalid) {
		t.Fatalf("%s(%#x, %#x): native %#x, softfp %#x (invalid %v)", op, a, b, got, want, wantInvalid)
	}
	if g, inv := goldenWithFlags(op, a, b); g != want || inv != wantInvalid {
		t.Fatalf("%s(%#x, %#x): goldenWithFlags %#x (invalid %v), softfp %#x (invalid %v)",
			op, a, b, g, inv, want, wantInvalid)
	}
	return ok
}

// fmtBits describes one format's encoding for building boundary cases.
type fmtBits struct {
	frac     uint64 // fraction bits
	maxExp   uint64 // all-ones biased exponent
	bias     uint64
	sign     uint64
	fracMask uint64
}

func bitsOf(op fpu.Op) fmtBits {
	f := op.Format()
	return fmtBits{
		frac:     uint64(f.FracBits),
		maxExp:   1<<f.ExpBits - 1,
		bias:     1<<(f.ExpBits-1) - 1,
		sign:     1 << (f.ExpBits + f.FracBits),
		fracMask: 1<<f.FracBits - 1,
	}
}

func (fb fmtBits) enc(exp, frac uint64) uint64 { return exp<<fb.frac | frac&fb.fracMask }

type nativeCase struct {
	op   fpu.Op
	a, b uint64
}

// nativeCases is the boundary table: round-to-even ties, exact
// cancellations, results one ulp either side of the smallest normal, of
// exponent 2 and of overflow, f2i inputs one ulp either side of ±2^31
// and of every biased exponent class (0, 1, 2, bias, max-1, max), and,
// with classes set, those classes crossed with themselves for the
// two-operand ops.
func nativeCases(classes bool) []nativeCase {
	var cs []nativeCase
	add := func(op fpu.Op, a, b uint64) { cs = append(cs, nativeCase{op, a, b}) }
	for _, op := range fpu.Ops() {
		fb := bitsOf(op)
		one := fb.enc(fb.bias, 0)
		half := fb.enc(fb.bias-1, 0)
		two := fb.enc(fb.bias+1, 0)
		minNormal := fb.enc(1, 0)
		maxFinite := fb.enc(fb.maxExp-1, fb.fracMask)
		var class []uint64
		for _, e := range []uint64{0, 1, 2, fb.bias, fb.maxExp - 1, fb.maxExp} {
			for _, fr := range []uint64{0, 1, fb.fracMask, 1 << (fb.frac - 1)} {
				class = append(class, fb.enc(e, fr), fb.sign|fb.enc(e, fr))
			}
		}
		switch op {
		case fpu.DI2F, fpu.SI2F:
			for _, x := range []int32{0, 1, -1, 3, math.MaxInt32, math.MinInt32, math.MinInt32 + 1,
				1 << 24, 1<<24 + 1, 1<<24 + 3, -(1<<24 + 1), 1<<25 + 2, 1<<25 + 6, 1<<31 - 64, 1<<31 - 65} {
				add(op, uint64(uint32(x)), 0)
			}
			continue
		case fpu.DF2I, fpu.SF2I:
			p31 := fb.enc(fb.bias+31, 0)
			for _, x := range []uint64{p31 - 1, p31, p31 + 1, fb.sign | (p31 - 1), fb.sign | p31, fb.sign | (p31 + 1),
				half, fb.sign | half, one, fb.sign | one, one - 1, fb.enc(fb.bias+1, 1<<(fb.frac-1)) /* 3.0 */} {
				add(op, x, 0)
			}
			for _, x := range class {
				add(op, x, 0)
			}
			continue
		}
		if classes {
			for _, x := range class {
				for _, y := range class {
					add(op, x, y)
				}
			}
		}
		// Ties: 1 + half an ulp rounds to even (down), 1+ulp + half an
		// ulp rounds to even (up); the same at the top of the range.
		halfUlp := fb.enc(fb.bias-fb.frac-1, 0)
		ulpMax := fb.enc(fb.maxExp-1-fb.frac, 0)
		halfUlpMax := fb.enc(fb.maxExp-2-fb.frac, 0)
		for _, x := range []uint64{one, one + 1, two - 1, maxFinite, maxFinite - 1} {
			add(op, x, halfUlp)
			add(op, x, fb.sign|halfUlp)
			add(op, x, halfUlpMax)
			add(op, x, ulpMax)
			add(op, x, x)         // x+x, x*x, x/x = 1
			add(op, x, one)       // x*1, x/1
			add(op, x, two)       // x*2 can overflow
			add(op, x, half)      // x*0.5
			add(op, x, fb.sign|x) // x + -x cancels
		}
		// Products and quotients one ulp either side of the smallest
		// normal and of 2*smallest normal: (t*2^k) * 2^-k and
		// (t*2^k) / 2^k for t next to each.
		k := fb.bias / 2
		for _, t := range []uint64{minNormal - 1, minNormal, minNormal + 1,
			fb.enc(2, 0) - 1, fb.enc(2, 0), fb.enc(2, 0) + 1} {
			add(op, scaleUp(fb, t, k), fb.enc(fb.bias-k, 0))
			add(op, scaleUp(fb, t, k), fb.enc(fb.bias+k, 0))
			add(op, fb.sign|scaleUp(fb, t, k), fb.enc(fb.bias-k, 0))
		}
		// Sums and differences that land on and next to the smallest
		// normal and 2*smallest normal.
		for _, p := range [][2]uint64{
			{fb.enc(2, 0), fb.enc(1, 0)}, {fb.enc(2, 0), fb.enc(1, 1)}, {fb.enc(2, 1), fb.enc(1, 0)},
			{fb.enc(3, 0), fb.enc(2, 0)}, {fb.enc(3, 0), fb.enc(2, 1)}, {fb.enc(3, 1), fb.enc(2, 0)},
			{fb.enc(1, 0), fb.enc(1, 1)}, {fb.enc(1, fb.fracMask), fb.enc(1, 1)},
		} {
			add(op, p[0], p[1])
			add(op, p[0], fb.sign|p[1])
		}
	}
	return cs
}

// scaleUp returns t * 2^k exactly for a finite t whose scaled value is
// normal; t may be a denormal.
func scaleUp(fb fmtBits, t, k uint64) uint64 {
	e := t >> fb.frac & fb.maxExp
	fr := t & fb.fracMask
	if e != 0 {
		return fb.enc(e+k, fr)
	}
	// Denormal: normalize the fraction first.
	for fr>>fb.frac == 0 {
		fr <<= 1
		k--
	}
	return fb.enc(1+k, fr)
}

func TestNativeFPMatchesSoftfp(t *testing.T) {
	accepted := make([]int, fpu.NumOps)
	rejected := make([]int, fpu.NumOps)
	for _, c := range nativeCases(true) {
		if checkNative(t, c.op, c.a, c.b) {
			accepted[c.op]++
		} else {
			rejected[c.op]++
		}
	}
	for _, op := range fpu.Ops() {
		if accepted[op] == 0 {
			t.Errorf("%s: the table never takes the native path", op)
		}
		if op != fpu.DI2F && op != fpu.SI2F && rejected[op] == 0 {
			t.Errorf("%s: the table never falls back to softfp", op)
		}
	}
}

// TestNativeFPBoundary pins the decisions the exponent rule exists for.
func TestNativeFPBoundary(t *testing.T) {
	f64 := math.Float64bits
	minNormal := uint64(0x0010000000000000)
	for _, tc := range []struct {
		name   string
		op     fpu.Op
		a, b   uint64
		native bool
	}{
		{"ordinary product", fpu.DMul, f64(math.Pi), f64(math.E), true},
		{"result at exponent 2", fpu.DMul, minNormal, f64(2), true},
		{"result is the smallest normal", fpu.DMul, 2 * minNormal, f64(0.5), false},
		{"denormal operand", fpu.DAdd, 1, f64(1), false},
		{"exact cancellation", fpu.DSub, f64(1.5), f64(1.5), false},
		{"overflow", fpu.DMul, f64(math.MaxFloat64), f64(2), false},
		{"largest finite result", fpu.DMul, f64(math.MaxFloat64), f64(1), true},
		{"NaN operand", fpu.DAdd, f64(math.NaN()), f64(1), false},
		{"divide by zero", fpu.DDiv, f64(1), 0, false},
		{"f2i below 2^31", fpu.DF2I, f64(math.Nextafter(1<<31, 0)), 0, true},
		{"f2i at 2^31", fpu.DF2I, f64(1 << 31), 0, false},
		{"f2i at -2^31", fpu.DF2I, f64(-1 << 31), 0, false},
		{"f2i of a fraction", fpu.DF2I, f64(-0.75), 0, true},
		{"f2i of zero", fpu.DF2I, 0, 0, false},
		{"i2f of MinInt32", fpu.SI2F, 1 << 31, 0, true},
	} {
		if got := checkNative(t, tc.op, tc.a, tc.b); got != tc.native {
			t.Errorf("%s: native path taken %v, want %v", tc.name, got, tc.native)
		}
	}
}

// TestNativeFPRandom draws operands whose exponents cluster at the
// boundaries the rule depends on, so products, quotients and
// cancellations often land next to the smallest normal or overflow.
func TestNativeFPRandom(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	src := prng.New(0x5EED)
	for _, op := range fpu.Ops() {
		fb := bitsOf(op)
		draw := func() uint64 {
			var e uint64
			switch src.Intn(4) {
			case 0:
				e = src.Uint64n(fb.maxExp + 1)
			case 1:
				e = src.Uint64n(4) // 0..3
			case 2:
				e = fb.maxExp - src.Uint64n(3) // max-2..max
			default:
				// Near bias/2 and 3*bias/2: products and quotients of
				// these straddle both ends of the range.
				e = fb.bias/2 + src.Uint64n(5) - 2
				if src.Bool() {
					e += fb.bias
				}
			}
			fr := src.Uint64() & fb.fracMask
			if src.Intn(4) == 0 {
				fr &= fb.fracMask << (fb.frac - 3) // few significant bits: ties and exact results
			}
			x := fb.enc(e, fr)
			if src.Bool() {
				x |= fb.sign
			}
			return x
		}
		for i := 0; i < n; i++ {
			a := draw()
			b := draw()
			if src.Intn(8) == 0 {
				b = a ^ fb.sign // cancellation
			}
			if op == fpu.DI2F || op == fpu.SI2F {
				a = uint64(src.Uint32())
			}
			checkNative(t, op, a, b)
		}
	}
}

// TestNativeI2FExhaustive checks both int-to-float conversions for every
// int32.
func TestNativeI2FExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("2^32 conversions per format")
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := uint64(w); x < 1<<32; x += uint64(workers) {
				i := int32(uint32(x))
				d, _ := softfp.Binary64.FromInt32(i)
				s, _ := softfp.Binary32.FromInt32(i)
				gd, okd := nativeFP(fpu.DI2F, x, 0)
				gs, oks := nativeFP(fpu.SI2F, x, 0)
				if !okd || !oks || gd != d || gs != s {
					errs[w] = fmt.Sprintf("i2f(%d): native %#x/%#x (ok %v/%v), softfp %#x/%#x", i, gd, gs, okd, oks, d, s)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}

// FuzzNativeFP checks the native path against softfp for any op and
// operand pair, seeded with the boundary table (without the class cross
// product, which TestNativeFPMatchesSoftfp covers).
func FuzzNativeFP(f *testing.F) {
	for _, c := range nativeCases(false) {
		f.Add(uint8(c.op), c.a, c.b)
	}
	f.Fuzz(func(t *testing.T, op uint8, a, b uint64) {
		checkNative(t, fpu.Op(op%uint8(fpu.NumOps)), a, b)
	})
}
