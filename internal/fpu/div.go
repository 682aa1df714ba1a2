package fpu

import "teva/internal/netlist"

// divSpecs describes the iterative divider: an unpack stage, a radix-2
// restoring-division recurrence stage executed once per quotient bit
// (mantissa + GRS bits), a sticky-collapse stage, and the shared round
// stage. The recurrence's compare/subtract is the divider's critical path;
// iterPad places it at its calibrated margin.
func divSpecs(op Op, iterPad, roundPad float64) (*schema, []stageSpec) {
	w := widthsOf(op.Format())
	rw := w.FB + 2 // remainder width (invariant: rem < 2*divisor)
	qw := w.SW     // quotient bits produced: mantissa + GRS
	inSchema := newSchema(fieldSpec{"a", w.W}, fieldSpec{"b", w.W})

	specs := []stageSpec{
		{name: "s1-unpack", build: func(c *sb) {
			a := decodeOperand(c, w, c.get("a"))
			b := decodeOperand(c, w, c.get("b"))
			sign := c.FXor(a.sign, b.sign)
			nan := c.FOr(c.FOr(a.nan, b.nan),
				c.FOr(c.FAnd(a.inf, b.inf), c.FAnd(a.zero, b.zero)))
			inf := c.FOr(a.inf, b.zero)  // x/0 and inf/y diverge
			zero := c.FOr(a.zero, b.inf) // 0/y and x/inf vanish
			sigA, sigB := a.sig(c, w), b.sig(c, w)
			// Pre-shift so the first quotient bit is 1: if sigA < sigB the
			// quotient is in [0.5,1), so double the dividend and drop the
			// exponent by one.
			lt := c.LessUnsigned(sigA, sigB)
			remSame := zeroExtend(sigA, rw)
			remShift := shiftLeftFixed(sigA, 1, rw)
			rem := c.FMuxBus(lt, remSame, remShift)
			// exp = expA - expB + bias - lt.
			e1 := c.Sum(c.RippleSub(zeroExtend(a.exp, w.EW), zeroExtend(b.exp, w.EW)))
			bias := uint64(1<<uint(w.EB-1) - 1)
			e2 := c.Sum(c.RippleAdder(e1, c.Constant(bias, w.EW), netlist.Const0))
			e3 := c.Sum(c.RippleSub(e2, zeroExtend(netlist.Bus{lt}, w.EW)))
			c.put("rem", rem)
			c.put("q", c.Zeros(qw))
			c.put("sigB", sigB)
			c.put("exp", e3)
			c.putBit("sign", sign)
			c.putBit("zero", zero)
			c.putBit("inf", inf)
			c.putBit("nan", nan)
		}},
		{name: "s2-recurrence", repeat: qw, build: func(c *sb) {
			rem := c.get("rem")
			q := c.get("q")
			sigB := zeroExtend(c.get("sigB"), rw)
			diff, noBorrow := c.HybridAddSub(rem, sigB, netlist.Const1, 16)
			remSel := c.FMuxBus(noBorrow, rem, diff)
			remNext := shiftLeftFixed(remSel, 1, rw)
			// The left shifts drop the top remainder bit (kept zero by the
			// rem < 2*divisor invariant) and shift the top quotient input
			// bit out of the register.
			c.Discard(remSel[rw-1], q[qw-1])
			qNext := append(netlist.Bus{noBorrow}, q[:qw-1]...)
			if iterPad > 0 {
				remNext = c.DetourBus(remNext, iterPad)
				qNext[0] = c.Detour(qNext[0], iterPad)
			}
			c.put("rem", remNext)
			c.put("q", qNext)
			c.forward("sigB", "exp", "sign", "zero", "inf", "nan")
		}},
		{name: "s3-sticky", build: func(c *sb) {
			// The divisor rides the recurrence registers but is of no use
			// after the last subtract.
			c.DiscardBus(c.get("sigB"))
			q := append(netlist.Bus{}, c.get("q")...)
			q[0] = c.FOr(q[0], c.FNot(c.IsZero(c.get("rem"))))
			sign := c.bit("sign")
			putRoundInputs(c, q, c.get("exp"), sign, c.bit("zero"), c.bit("inf"), sign, c.bit("nan"))
		}},
		{name: "s4-round", build: func(c *sb) {
			buildRoundStage(c, w, roundPad)
		}},
	}
	return inSchema, specs
}
