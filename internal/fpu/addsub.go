package fpu

import "teva/internal/netlist"

// addSubSpecs describes the 6-stage add/sub pipeline of Figure 3:
//
//	s1 unpack      operand decode, FTZ, effective-sign resolution
//	s2 compare     magnitude compare/swap, exponent difference
//	s3 align       barrel right shift of the smaller significand + sticky
//	s4 mantissa    the wide add/subtract — the op's critical stage
//	s5 normalize   1-bit right shift (carry) or LZC left shift (cancel)
//	s6 round       shared round/pack stage
//
// negB distinguishes subtraction (the only datapath difference is the
// inversion of operand B's sign in s1); mantPad/roundPad are the
// calibrated stage margins.
func addSubSpecs(op Op, mantPad, roundPad float64) (*schema, []stageSpec) {
	w := widthsOf(op.Format())
	sub := op.kind() == kindSub
	inSchema := newSchema(fieldSpec{"a", w.W}, fieldSpec{"b", w.W})

	specs := []stageSpec{
		{name: "s1-unpack", build: func(c *sb) {
			a := decodeOperand(c, w, c.get("a"))
			b := decodeOperand(c, w, c.get("b"))
			signB := b.sign
			if sub {
				signB = c.Not(signB) // effective sign of B for a-b
			}
			// inf-inf with opposite effective signs is invalid.
			diffSign := c.FXor(a.sign, signB)
			nan := c.FOr(c.FOr(a.nan, b.nan), c.And3(a.inf, b.inf, diffSign))
			inf := c.FOr(a.inf, b.inf)
			infSign := c.FMux(a.inf, signB, a.sign)
			c.putBit("signA", a.sign)
			c.putBit("signB", signB)
			c.put("expA", a.exp)
			c.put("expB", b.exp)
			c.put("fracA", a.frac)
			c.put("fracB", b.frac)
			c.putBit("zeroA", a.zero)
			c.putBit("zeroB", b.zero)
			c.putBit("inf", inf)
			c.putBit("infsign", infSign)
			c.putBit("nan", nan)
		}},
		{name: "s2-compare", build: func(c *sb) {
			expA, expB := c.get("expA"), c.get("expB")
			fracA, fracB := c.get("fracA"), c.get("fracB")
			signA, signB := c.bit("signA"), c.bit("signB")
			zeroA, zeroB := c.bit("zeroA"), c.bit("zeroB")
			// Magnitude comparison over exp|frac selects the larger operand.
			magA := append(append(netlist.Bus{}, fracA...), expA...)
			magB := append(append(netlist.Bus{}, fracB...), expB...)
			bLarger := c.LessUnsigned(magA, magB)
			nzA, nzB := c.FNot(zeroA), c.FNot(zeroB)
			sigA := append(c.FAndWith(fracA, nzA), nzA)
			sigB := append(c.FAndWith(fracB, nzB), nzB)
			expL := c.FMuxBus(bLarger, expA, expB)
			expS := c.FMuxBus(bLarger, expB, expA)
			d := c.Sum(c.RippleSub(expL, expS))
			c.put("sigL", c.FMuxBus(bLarger, sigA, sigB))
			c.put("sigS", c.FMuxBus(bLarger, sigB, sigA))
			c.put("d", d)
			c.put("expL", expL)
			c.putBit("signL", c.FMux(bLarger, signA, signB))
			c.putBit("effSub", c.FXor(signA, signB))
			// Sign of an all-cancelled / all-zero result: -0 only when
			// both effective signs are negative (round-to-nearest rule).
			c.putBit("zsign", c.FAnd(signA, signB))
			c.forward("inf", "infsign", "nan")
		}},
		{name: "s3-align", build: func(c *sb) {
			sigL, sigS := c.get("sigL"), c.get("sigS")
			d := c.get("d")
			x := shiftLeftFixed(sigL, 3, w.SW)
			yRaw := shiftLeftFixed(sigS, 3, w.SW)
			y := c.ShiftRight(yRaw, d, netlist.Const0)
			sticky := c.StickyRight(yRaw, d)
			y = append(netlist.Bus{}, y...)
			y[0] = c.FOr(y[0], sticky)
			c.put("x", x)
			c.put("y", y)
			c.forward("expL", "signL", "effSub", "zsign", "inf", "infsign", "nan")
		}},
		{name: "s4-mantissa", build: func(c *sb) {
			x, y := c.get("x"), c.get("y")
			effSub := c.bit("effSub")
			// Compound adder: sum and difference computed in parallel and
			// selected by the effective operation, so each adder sees a
			// stable operand polarity (no whole-bus inversion transients).
			sumAdd, coutAdd := c.HybridAdder(x, y, netlist.Const0, 16)
			sumSub := c.Sum(c.HybridAdder(x, c.FNotBus(y), netlist.Const1, 16))
			sum := c.FMuxBus(effSub, sumAdd, sumSub)
			carry := c.FAnd(coutAdd, c.FNot(effSub))
			m := append(append(netlist.Bus{}, sum...), carry)
			if mantPad > 0 {
				m = c.DetourBus(m, mantPad)
			}
			c.put("m", m)
			c.forward("expL", "signL", "effSub", "zsign", "inf", "infsign", "nan")
		}},
		{name: "s5-normalize", build: func(c *sb) {
			m := c.get("m")
			effSub := c.bit("effSub")
			expL := c.get("expL")
			carry := m[w.SW]
			base := netlist.Bus(m[:w.SW])
			// Addition overflow: shift right one, folding the lost bit
			// into sticky.
			shifted := append(netlist.Bus{c.FOr(m[0], m[1])}, m[2:w.SW+1]...)
			nAdd := c.FMuxBus(carry, base, shifted)
			// Subtractive cancellation: normalize left.
			nSub, lz := c.NormalizeLeft(base, w.CW)
			n := c.FMuxBus(effSub, nAdd, nSub)
			// exp = expL + carry (add path) - lz (sub path).
			expExt := zeroExtend(expL, w.EW)
			carryAdd := c.FAnd(carry, c.FNot(effSub))
			e1 := c.Sum(c.Increment(expExt, carryAdd))
			lzSel := zeroExtend(c.FAndWith(lz, effSub), w.EW)
			e2 := c.Sum(c.RippleSub(e1, lzSel))
			zeroRes := c.IsZero(m) // all SW+1 bits, including the add carry
			signR := c.FMux(zeroRes, c.bit("signL"), c.bit("zsign"))
			putRoundInputs(c, n, e2, signR, zeroRes,
				c.bit("inf"), c.bit("infsign"), c.bit("nan"))
		}},
		{name: "s6-round", build: func(c *sb) {
			buildRoundStage(c, w, roundPad)
		}},
	}
	return inSchema, specs
}
