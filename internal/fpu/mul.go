package fpu

import "teva/internal/netlist"

// mulSpecs describes the 6-stage multiplier pipeline:
//
//	s1 unpack      operand decode, sign/flag resolution
//	s2 ppgen       partial products + first carry-save levels (to 8 rows)
//	s3 csa         carry-save reduction to two rows; exponent sum
//	s4 cpa         the wide carry-propagate addition — the design's
//	               overall critical stage (sets the clock period)
//	s5 normalize   1-bit normalization and sticky collapse
//	s6 round       shared round/pack stage
func mulSpecs(op Op, cpaPad, roundPad float64) (*schema, []stageSpec) {
	w := widthsOf(op.Format())
	pw := 2*w.FB + 2 // full product width of two FB+1-bit significands
	inSchema := newSchema(fieldSpec{"a", w.W}, fieldSpec{"b", w.W})

	specs := []stageSpec{
		{name: "s1-unpack", build: func(c *sb) {
			a := decodeOperand(c, w, c.get("a"))
			b := decodeOperand(c, w, c.get("b"))
			sign := c.FXor(a.sign, b.sign)
			// inf * 0 (either way) is invalid.
			invalid := c.FOr(c.FAnd(a.inf, b.zero), c.FAnd(b.inf, a.zero))
			c.put("sigA", a.sig(c, w))
			c.put("sigB", b.sig(c, w))
			c.put("expA", a.exp)
			c.put("expB", b.exp)
			c.putBit("sign", sign)
			c.putBit("zero", c.FOr(a.zero, b.zero))
			c.putBit("inf", c.FOr(a.inf, b.inf))
			c.putBit("nan", c.FOr(c.FOr(a.nan, b.nan), invalid))
		}},
		{name: "s2-ppgen", build: func(c *sb) {
			rows := c.CompressAddends(c.PartialProducts(c.get("sigA"), c.get("sigB")), 8)
			for i, row := range rows {
				c.put(rowName(i), row)
			}
			for i := len(rows); i < 8; i++ {
				c.put(rowName(i), c.Zeros(pw))
			}
			expSum := c.Sum(c.RippleAdder(
				zeroExtend(c.get("expA"), w.EW), zeroExtend(c.get("expB"), w.EW),
				netlist.Const0))
			c.put("expSum", expSum)
			c.forward("sign", "zero", "inf", "nan")
		}},
		{name: "s3-csa", build: func(c *sb) {
			rows := make([]netlist.Bus, 8)
			for i := range rows {
				rows[i] = c.get(rowName(i))
			}
			two := c.CompressAddends(rows, 2)
			c.put("r0", two[0])
			c.put("r1", two[1])
			c.forward("expSum", "sign", "zero", "inf", "nan")
		}},
		{name: "s4-cpa", build: func(c *sb) {
			p := c.Sum(c.HybridAdder(c.get("r0"), c.get("r1"), netlist.Const0, 16))
			if cpaPad > 0 {
				p = c.DetourBus(p, cpaPad)
			}
			c.put("p", p)
			c.forward("expSum", "sign", "zero", "inf", "nan")
		}},
		{name: "s5-normalize", build: func(c *sb) {
			p := c.get("p")
			expSum := c.get("expSum")
			top := p[pw-1] // product in [2,4): leading one at pw-1
			// High alternative: take bits [pw-SW, pw), sticky from below.
			hiN := append(netlist.Bus{}, p[pw-w.SW:]...)
			hiSticky := c.ReduceOr(netlist.Bus(p[:pw-w.SW]))
			hiN[0] = c.FOr(hiN[0], hiSticky)
			// Low alternative: product in [1,2): leading one at pw-2.
			loN := append(netlist.Bus{}, p[pw-w.SW-1:pw-1]...)
			loSticky := c.ReduceOr(netlist.Bus(p[:pw-w.SW-1]))
			loN[0] = c.FOr(loN[0], loSticky)
			n := c.FMuxBus(top, loN, hiN)
			// exp = expA + expB - bias + top.
			bias := uint64(1<<uint(w.EB-1) - 1)
			e1 := c.Sum(c.RippleSub(expSum, c.Constant(bias, w.EW)))
			e2 := c.Sum(c.Increment(e1, top))
			sign := c.bit("sign")
			putRoundInputs(c, n, e2, sign, c.bit("zero"), c.bit("inf"), sign, c.bit("nan"))
		}},
		{name: "s6-round", build: func(c *sb) {
			buildRoundStage(c, w, roundPad)
		}},
	}
	return inSchema, specs
}

func rowName(i int) string { return "row" + string(rune('0'+i)) }
