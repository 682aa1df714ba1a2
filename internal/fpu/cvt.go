package fpu

import "teva/internal/netlist"

// i2fSpecs describes the int32 → float pipeline: magnitude extraction,
// normalization (leading-zero count + shift), and the shared round stage
// (exact for binary64, rounding for binary32).
func i2fSpecs(op Op) (*schema, []stageSpec) {
	w := widthsOf(op.Format())
	inSchema := newSchema(fieldSpec{"a", 32})

	specs := []stageSpec{
		{name: "s1-mag", build: func(c *sb) {
			a := c.get("a")
			sign := a[31]
			mag := c.FMuxBus(sign, a, c.Negate(a))
			c.put("mag", mag)
			c.putBit("sign", sign)
			c.putBit("zero", c.IsZero(a))
		}},
		{name: "s2-normalize", build: func(c *sb) {
			mag := c.get("mag")
			norm, lz := c.NormalizeLeft(mag, 5)
			// Leading one now at bit 31; exponent = bias + 31 - lz.
			bias := uint64(1<<uint(w.EB-1) - 1)
			e := c.Sum(c.RippleSub(c.Constant(bias+31, w.EW), zeroExtend(lz, w.EW)))
			var n netlist.Bus
			if w.SW >= 32 {
				n = shiftLeftFixed(norm, w.SW-32, w.SW)
			} else {
				drop := 32 - w.SW
				n = append(netlist.Bus{}, norm[drop:]...)
				n[0] = c.FOr(n[0], c.ReduceOr(netlist.Bus(norm[:drop])))
			}
			sign := c.bit("sign")
			putRoundInputs(c, n, e, sign, c.bit("zero"), netlist.Const0, netlist.Const0, netlist.Const0)
		}},
		{name: "s3-round", build: func(c *sb) {
			buildRoundStage(c, w, 0)
		}},
	}
	return inSchema, specs
}

// f2iSpecs describes the float → int32 pipeline: unpack, shift to integer
// weight, then negate/saturate/pack. Conversion truncates toward zero;
// NaN converts to 0 and out-of-range values saturate.
func f2iSpecs(op Op) (*schema, []stageSpec) {
	w := widthsOf(op.Format())
	inSchema := newSchema(fieldSpec{"a", w.W})
	// Significand zero-extended to cover both the FB+1 mantissa and the
	// 32-bit integer range.
	sw := w.FB + 1
	if sw < 32 {
		sw = 32
	}

	specs := []stageSpec{
		{name: "s1-unpack", build: func(c *sb) {
			a := decodeOperand(c, w, c.get("a"))
			bias := uint64(1<<uint(w.EB-1) - 1)
			e := c.Sum(c.RippleSub(zeroExtend(a.exp, w.EW), c.Constant(bias, w.EW)))
			c.put("sig", a.sig(c, w))
			c.put("e", e)
			c.putBit("sign", a.sign)
			c.putBit("zero", a.zero)
			c.putBit("inf", a.inf)
			c.putBit("nan", a.nan)
		}},
		{name: "s2-shift", build: func(c *sb) {
			sig := zeroExtend(c.get("sig"), sw)
			e := c.get("e")
			eNeg := e[w.EW-1]
			// |value| >= 2^31 saturates (2^31 itself packs to MinInt32 when
			// negative, which the saturation value also encodes).
			big := c.FAnd(c.FNot(eNeg),
				c.FNot(c.LessUnsigned(e, c.Constant(31, w.EW))))
			// Right shift by FB-e (or left by e-FB when e > FB, which only
			// occurs for binary32).
			r := c.Sum(c.RippleSub(c.Constant(uint64(w.FB), w.EW), e))
			rNeg := r[w.EW-1]
			magR := c.ShiftRight(sig, netlist.Bus(r[:6]), netlist.Const0)
			var mag netlist.Bus
			if w.FB < 31 {
				l := c.Negate(r)
				// Only the 6-bit shift field of the negated count is used.
				c.DiscardBus(netlist.Bus(l[6:]))
				magL := c.ShiftLeft(sig, netlist.Bus(l[:6]))
				mag = c.FMuxBus(rNeg, magR, magL)
			} else {
				// For binary64 e <= FB always, so only the 6-bit shift
				// field of r is consumed (no left-shift path, and the sign
				// mux is never built); out-of-range counts mask via drop.
				c.DiscardBus(netlist.Bus(r[6:]))
				mag = magR
			}
			if len(mag) > 32 {
				// Bits above the int32 range only matter through big/sat;
				// the shifter still computes them.
				c.DiscardBus(netlist.Bus(mag[32:]))
			}
			c.put("mag", netlist.Bus(mag[:32]))
			c.putBit("drop", c.FOr(eNeg, c.bit("zero")))
			c.forward("sign", "inf", "nan")
			c.putBit("big", big)
		}},
		{name: "s3-pack", build: func(c *sb) {
			mag := c.get("mag")
			sign := c.bit("sign")
			val := c.FMuxBus(sign, mag, c.Negate(mag))
			sat := append(c.FNotBus(c.Zeros(31)), netlist.Const0) // MaxInt32
			satNeg := append(c.Zeros(31), netlist.Const1)         // MinInt32
			satVal := c.FMuxBus(sign, sat, satNeg)
			res := c.FMuxBus(c.bit("drop"), val, c.Zeros(32))
			res = c.FMuxBus(c.FOr(c.bit("big"), c.bit("inf")), res, satVal)
			res = c.FMuxBus(c.bit("nan"), res, c.Zeros(32))
			c.put("result", res)
		}},
	}
	return inSchema, specs
}
