package fpu

import (
	"teva/internal/netlist"
	"teva/internal/softfp"
)

// Derived widths for a format.
type widths struct {
	f  softfp.Format
	W  int // encoding width
	EB int // exponent bits
	FB int // fraction bits
	SW int // working significand width: FB+1 mantissa + 3 GRS
	EW int // exponent datapath width (signed): EB+2
	CW int // normalize-count width: smallest c with 2^c >= SW
}

func widthsOf(f softfp.Format) widths {
	w := widths{
		f:  f,
		W:  int(f.Width()),
		EB: int(f.ExpBits),
		FB: int(f.FracBits),
	}
	w.SW = w.FB + 4
	w.EW = w.EB + 2
	w.CW = 1
	for 1<<uint(w.CW) < w.SW {
		w.CW++
	}
	return w
}

// operand is the decoded form of a floating-point input inside a stage.
type operand struct {
	sign netlist.NetID
	exp  netlist.Bus // EB bits
	frac netlist.Bus // FB bits
	zero netlist.NetID
	inf  netlist.NetID
	nan  netlist.NetID
}

// decodeOperand splits an encoding bus and derives the class flags with
// flush-to-zero semantics (exponent zero reads as zero regardless of the
// fraction).
func decodeOperand(c *sb, w widths, enc netlist.Bus) operand {
	frac := netlist.Bus(enc[:w.FB])
	exp := netlist.Bus(enc[w.FB : w.FB+w.EB])
	expMax := c.IsOnes(exp)
	fracZero := c.IsZero(frac)
	return operand{
		sign: enc[w.W-1],
		exp:  exp,
		frac: frac,
		zero: c.IsZero(exp),
		inf:  c.FAnd(expMax, fracZero),
		nan:  c.FAnd(expMax, c.FNot(fracZero)),
	}
}

// sig returns the FB+1-bit significand with the implicit leading bit.
// A flushed (zero/denormal) operand reads as an all-zero significand.
func (o operand) sig(c *sb, w widths) netlist.Bus {
	nz := c.FNot(o.zero)
	return append(c.FAndWith(o.frac, nz), nz)
}

// zeroExtend widens a bus with constant zeros.
func zeroExtend(bus netlist.Bus, width int) netlist.Bus {
	out := append(netlist.Bus{}, bus...)
	for len(out) < width {
		out = append(out, netlist.Const0)
	}
	return out
}

// shiftLeftFixed rewires a bus left by s into width w.
func shiftLeftFixed(bus netlist.Bus, s, w int) netlist.Bus {
	out := make(netlist.Bus, w)
	for i := range out {
		src := i - s
		if src >= 0 && src < len(bus) {
			out[i] = bus[src]
		} else {
			out[i] = netlist.Const0
		}
	}
	return out
}

// buildRoundStage emits the shared final stage: round-to-nearest-even on
// the GRS bits, exponent overflow/underflow resolution (overflow to
// infinity, underflow flushed to zero), and the special-case result muxes
// in priority order zero < overflow < infinity < NaN. padPS delays the
// packed result bus, placing the rounding stage at its calibrated margin.
func buildRoundStage(c *sb, w widths, padPS float64) {
	n := c.get("n")
	exp := c.get("exp")
	sign := c.bit("sign")
	zero := c.bit("zero")
	inf := c.bit("inf")
	infSign := c.bit("infsign")
	nan := c.bit("nan")

	// Round to nearest even: guard & (round | sticky | lsb).
	lsb := n[3]
	guard := n[2]
	rs := c.FOr(n[1], n[0])
	roundUp := c.FAnd(guard, c.FOr(rs, lsb))
	mant, carry := c.Increment(netlist.Bus(n[3:]), roundUp)
	// The leading significand bit is implicit in the packed encoding; a
	// rounding overflow is absorbed by the exponent increment below.
	c.Discard(mant[w.FB])
	exp2 := c.Sum(c.Increment(exp, carry))

	// Range checks on the signed exponent.
	negOrZero := c.FOr(exp2[w.EW-1], c.IsZero(exp2))
	geMax := c.FAnd(c.FNot(exp2[w.EW-1]),
		c.FNot(c.LessUnsigned(exp2, c.Constant(uint64(1<<uint(w.EB)-1), w.EW))))

	// Numeric result: frac | exp | sign.
	result := append(netlist.Bus{}, mant[:w.FB]...)
	result = append(result, exp2[:w.EB]...)
	result = append(result, sign)

	zeroBus := append(c.Zeros(w.W-1), sign)
	infBus := func(s netlist.NetID) netlist.Bus {
		b := append(c.Zeros(w.FB), c.Constant(uint64(1<<uint(w.EB)-1), w.EB)...)
		return append(b, s)
	}
	qnan := c.Constant(w.f.QNaN(), w.W)

	result = c.FMuxBus(c.FOr(zero, negOrZero), result, zeroBus)
	result = c.FMuxBus(geMax, result, infBus(sign))
	result = c.FMuxBus(inf, result, infBus(infSign))
	result = c.FMuxBus(nan, result, qnan)
	if padPS > 0 {
		result = c.DetourBus(result, padPS)
	}
	c.put("result", result)
}

// putRoundInputs emits the shared round-stage fields from a stage.
func putRoundInputs(c *sb, n, exp netlist.Bus, sign, zero, inf, infSign, nan netlist.NetID) {
	c.put("n", n)
	c.put("exp", exp)
	c.putBit("sign", sign)
	c.putBit("zero", zero)
	c.putBit("inf", inf)
	c.putBit("infsign", infSign)
	c.putBit("nan", nan)
}
