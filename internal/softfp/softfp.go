// Package softfp is a bit-accurate software implementation of the IEEE-754
// operations the target FPU executes: add, sub, mul, div, int-to-float and
// float-to-int conversions, in single and double precision. It mirrors the
// hardware algorithm (align → operate → normalize → round-to-nearest-even)
// and serves as the golden reference the gate-level FPU netlists are
// validated against.
//
// Denormal handling is flush-to-zero in both directions (denormal inputs
// read as zero, denormal results flush to zero), matching the gate-level
// implementation; this deviation from full IEEE-754 gradual underflow is
// recorded in DESIGN.md. Rounding is round-to-nearest-even. NaN results
// are canonical quiet NaNs.
package softfp

import "math/bits"

// Flags records IEEE-754 exception conditions raised by an operation; the
// target FPU "generates exception signals" for the same set.
type Flags uint8

// Exception flags.
const (
	FlagInvalid Flags = 1 << iota
	FlagDivZero
	FlagOverflow
	FlagUnderflow
	FlagInexact
)

// Has reports whether all flags in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// Format describes a binary interchange format.
type Format struct {
	// ExpBits is the exponent field width (11 for binary64, 8 for binary32).
	ExpBits uint
	// FracBits is the fraction field width (52 / 23).
	FracBits uint
}

// The two formats the FPU implements.
var (
	Binary64 = Format{ExpBits: 11, FracBits: 52}
	Binary32 = Format{ExpBits: 8, FracBits: 23}
)

// Width returns the total encoding width in bits.
func (f Format) Width() uint { return 1 + f.ExpBits + f.FracBits }

func (f Format) bias() int        { return 1<<(f.ExpBits-1) - 1 }
func (f Format) expMax() int      { return 1<<f.ExpBits - 1 }
func (f Format) fracMask() uint64 { return 1<<f.FracBits - 1 }

// QNaN returns the canonical quiet NaN encoding.
func (f Format) QNaN() uint64 {
	return uint64(f.expMax())<<f.FracBits | 1<<(f.FracBits-1)
}

// Inf returns the infinity encoding with the given sign.
func (f Format) Inf(sign uint64) uint64 {
	return sign<<(f.ExpBits+f.FracBits) | uint64(f.expMax())<<f.FracBits
}

// Zero returns the zero encoding with the given sign.
func (f Format) Zero(sign uint64) uint64 { return sign << (f.ExpBits + f.FracBits) }

// unpacked is a decoded operand.
type unpacked struct {
	sign uint64 // 0 or 1
	exp  int    // biased exponent field
	frac uint64 // fraction field
}

func (f Format) unpack(x uint64) unpacked {
	return unpacked{
		sign: x >> (f.ExpBits + f.FracBits) & 1,
		exp:  int(x >> f.FracBits & uint64(f.expMax())),
		frac: x & f.fracMask(),
	}
}

func (u unpacked) isNaN(f Format) bool  { return u.exp == f.expMax() && u.frac != 0 }
func (u unpacked) isInf(f Format) bool  { return u.exp == f.expMax() && u.frac == 0 }
func (u unpacked) isZero(f Format) bool { return u.exp == 0 } // FTZ: denormals are zero

// sig returns the significand with the implicit leading one, or 0 for
// (flushed) zeros.
func (u unpacked) sig(f Format) uint64 {
	if u.exp == 0 {
		return 0
	}
	return 1<<f.FracBits | u.frac
}

// roundPack assembles sign/exp/mantissa-with-GRS into an encoding with
// round-to-nearest-even. mant holds the significand in bits
// [3, 3+FracBits] (leading one at bit FracBits+3) and guard/round/sticky
// in bits 2..0. exp is the biased exponent of that leading-one position.
func (f Format) roundPack(sign uint64, exp int, mant uint64) (uint64, Flags) {
	var flags Flags
	grs := mant & 7
	m := mant >> 3
	if grs != 0 {
		flags |= FlagInexact
	}
	// Round to nearest even: guard set and (round|sticky|lsb).
	if grs&4 != 0 && (grs&3 != 0 || m&1 != 0) {
		m++
		if m == 1<<(f.FracBits+1) {
			m >>= 1
			exp++
		}
	}
	if exp >= f.expMax() {
		return f.Inf(sign), flags | FlagOverflow | FlagInexact
	}
	if exp <= 0 {
		// Result below the normal range: flush to zero.
		return f.Zero(sign), flags | FlagUnderflow | FlagInexact
	}
	return sign<<(f.ExpBits+f.FracBits) | uint64(exp)<<f.FracBits | m&f.fracMask(), flags
}

// Add returns a+b in the format.
func (f Format) Add(a, b uint64) (uint64, Flags) { return f.addSigned(a, b, 0) }

// Sub returns a-b in the format.
func (f Format) Sub(a, b uint64) (uint64, Flags) { return f.addSigned(a, b, 1) }

// addSigned computes a + (-1)^negB * b.
func (f Format) addSigned(a, b uint64, negB uint64) (uint64, Flags) {
	ua, ub := f.unpack(a), f.unpack(b)
	ub.sign ^= negB
	switch {
	case ua.isNaN(f) || ub.isNaN(f):
		return f.QNaN(), FlagInvalid
	case ua.isInf(f) && ub.isInf(f):
		if ua.sign != ub.sign {
			return f.QNaN(), FlagInvalid
		}
		return f.Inf(ua.sign), 0
	case ua.isInf(f):
		return f.Inf(ua.sign), 0
	case ub.isInf(f):
		return f.Inf(ub.sign), 0
	case ua.isZero(f) && ub.isZero(f):
		// +0 unless both negative (round-to-nearest sign rule).
		if ua.sign == 1 && ub.sign == 1 {
			return f.Zero(1), 0
		}
		return f.Zero(0), 0
	case ua.isZero(f):
		return f.pack(ub), 0
	case ub.isZero(f):
		return f.pack(ua), 0
	}

	// Order so |a| >= |b|.
	magA := uint64(ua.exp)<<f.FracBits | ua.frac
	magB := uint64(ub.exp)<<f.FracBits | ub.frac
	if magB > magA {
		ua, ub = ub, ua
	}
	d := uint(ua.exp - ub.exp)
	// Significands with 3 guard positions.
	x := ua.sig(f) << 3
	y := ub.sig(f) << 3
	width := f.FracBits + 4 // bits in x
	var ySh uint64
	if d >= width {
		if y != 0 {
			ySh = 1 // pure sticky
		}
	} else if d > 0 {
		sticky := uint64(0)
		if y&(1<<d-1) != 0 {
			sticky = 1
		}
		ySh = y>>d | sticky
	} else {
		ySh = y
	}

	var sum uint64
	exp := ua.exp
	if ua.sign == ub.sign {
		sum = x + ySh
		if sum >= 1<<(width) {
			// Carry out: shift right one, preserving sticky.
			sum = sum>>1 | sum&1
			exp++
		}
	} else {
		sum = x - ySh
		if sum == 0 {
			return f.Zero(0), 0
		}
		// Normalize left.
		lz := bits.LeadingZeros64(sum) - int(64-width)
		sum <<= uint(lz)
		exp -= lz
	}
	return f.roundPack(ua.sign, exp, sum)
}

// pack re-encodes an unpacked normal/zero value.
func (f Format) pack(u unpacked) uint64 {
	if u.exp == 0 {
		return f.Zero(u.sign)
	}
	return u.sign<<(f.ExpBits+f.FracBits) | uint64(u.exp)<<f.FracBits | u.frac
}

// Mul returns a*b in the format.
func (f Format) Mul(a, b uint64) (uint64, Flags) {
	ua, ub := f.unpack(a), f.unpack(b)
	sign := ua.sign ^ ub.sign
	switch {
	case ua.isNaN(f) || ub.isNaN(f):
		return f.QNaN(), FlagInvalid
	case ua.isInf(f) || ub.isInf(f):
		if ua.isZero(f) || ub.isZero(f) {
			return f.QNaN(), FlagInvalid
		}
		return f.Inf(sign), 0
	case ua.isZero(f) || ub.isZero(f):
		return f.Zero(sign), 0
	}
	// Product of two (FracBits+1)-bit significands.
	hi, lo := bits.Mul64(ua.sig(f), ub.sig(f))
	// The product has 2*FracBits+1 or +2 bits; bring it to a
	// (FracBits+1)-bit mantissa with 3 guard bits.
	pw := 2*f.FracBits + 2 // max product width
	exp := ua.exp + ub.exp - f.bias()
	// Normalize so the leading one sits at bit pw-1.
	if hi == 0 && lo < 1<<(pw-1) && pw <= 64 {
		// Leading one at pw-2: product in [1,2); adjust.
		exp--
		lo <<= 1
	} else if pw > 64 {
		// 128-bit path (binary64): leading one at bit pw-1 or pw-2 of the
		// 128-bit product.
		if hi>>(pw-1-64)&1 == 0 {
			exp--
			hi = hi<<1 | lo>>63
			lo <<= 1
		}
	}
	exp++ // product of two [1,2) values is [1,4): leading position carries +1 weight

	var mant uint64
	if pw <= 64 {
		// binary32: keep FracBits+1 top bits plus GRS.
		shift := pw - (f.FracBits + 4)
		mant = lo >> shift
		if lo&(1<<shift-1) != 0 {
			mant |= 1
		}
	} else {
		// binary64: top bits live in hi.
		topBits := pw - 64 // bits of product in hi (after normalization)
		need := f.FracBits + 4
		fromHi := uint(topBits)
		mant = hi << (need - fromHi)
		mant |= lo >> (64 - (need - fromHi))
		if lo<<(need-fromHi) != 0 {
			mant |= 1
		}
	}
	return f.roundPack(sign, exp, mant)
}

// Div returns a/b in the format.
func (f Format) Div(a, b uint64) (uint64, Flags) {
	ua, ub := f.unpack(a), f.unpack(b)
	sign := ua.sign ^ ub.sign
	switch {
	case ua.isNaN(f) || ub.isNaN(f):
		return f.QNaN(), FlagInvalid
	case ua.isInf(f) && ub.isInf(f):
		return f.QNaN(), FlagInvalid
	case ua.isInf(f):
		return f.Inf(sign), 0
	case ub.isInf(f):
		return f.Zero(sign), 0
	case ub.isZero(f):
		if ua.isZero(f) {
			return f.QNaN(), FlagInvalid
		}
		return f.Inf(sign), FlagDivZero
	case ua.isZero(f):
		return f.Zero(sign), 0
	}
	sa, sb := ua.sig(f), ub.sig(f)
	exp := ua.exp - ub.exp + f.bias()
	// If sa < sb the quotient is in [0.5,1): pre-shift to keep the leading
	// one at a fixed position.
	if sa < sb {
		exp--
		sa <<= 1
	}
	// Long division producing FracBits+1 quotient bits plus 3 guard bits.
	qBits := f.FracBits + 4
	var q, rem uint64
	rem = sa
	for i := uint(0); i < qBits; i++ {
		q <<= 1
		if rem >= sb {
			rem -= sb
			q |= 1
		}
		rem <<= 1
	}
	if rem != 0 {
		q |= 1 // sticky
	}
	return f.roundPack(sign, exp, q)
}

// FromInt32 converts a signed 32-bit integer to the format with
// round-to-nearest-even (exact for binary64).
func (f Format) FromInt32(x int32) (uint64, Flags) {
	if x == 0 {
		return f.Zero(0), 0
	}
	var sign uint64
	mag := uint64(x)
	if x < 0 {
		sign = 1
		mag = uint64(-int64(x))
	}
	lz := bits.LeadingZeros64(mag)
	msb := 63 - lz // position of the leading one
	exp := f.bias() + msb
	// Place the leading one at bit FracBits+3 (mantissa with GRS).
	target := int(f.FracBits) + 3
	var mant uint64
	if msb <= target {
		mant = mag << uint(target-msb)
	} else {
		shift := uint(msb - target)
		mant = mag >> shift
		if mag&(1<<shift-1) != 0 {
			mant |= 1
		}
	}
	return f.roundPack(sign, exp, mant)
}

// ToInt32 converts to a signed 32-bit integer, truncating toward zero.
// NaN converts to 0 with FlagInvalid; out-of-range values saturate with
// FlagInvalid (the FPU's exception behaviour).
func (f Format) ToInt32(a uint64) (int32, Flags) {
	u := f.unpack(a)
	switch {
	case u.isNaN(f):
		return 0, FlagInvalid
	case u.isInf(f):
		if u.sign == 1 {
			return -1 << 31, FlagInvalid
		}
		return 1<<31 - 1, FlagInvalid
	case u.isZero(f):
		return 0, 0
	}
	e := u.exp - f.bias() // unbiased exponent
	if e < 0 {
		return 0, FlagInexact
	}
	if e >= 31 {
		// Magnitude >= 2^31: saturate (except exactly -2^31).
		if u.sign == 1 && e == 31 && u.frac == 0 {
			return -1 << 31, 0
		}
		if u.sign == 1 {
			return -1 << 31, FlagInvalid
		}
		return 1<<31 - 1, FlagInvalid
	}
	sig := u.sig(f)
	var mag uint64
	var flags Flags
	if shift := int(f.FracBits) - e; shift > 0 {
		mag = sig >> uint(shift)
		if sig&(1<<uint(shift)-1) != 0 {
			flags |= FlagInexact
		}
	} else {
		mag = sig << uint(-shift)
	}
	if u.sign == 1 {
		return int32(-int64(mag)), flags
	}
	return int32(mag), flags
}

// IsNaNBits reports whether the encoding is any NaN.
func (f Format) IsNaNBits(a uint64) bool { return f.unpack(a).isNaN(f) }
