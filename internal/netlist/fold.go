package netlist

// Constant folding for the builder primitives. Generator code describes
// arithmetic naively (e.g. partial products with constant-zero padding);
// folding prunes gates with constant inputs the way logic synthesis would,
// keeping generated netlists at realistic sizes. Folding happens inside
// the F* ("folded") primitives, which the arithmetic generators use; the
// plain primitives always instantiate a cell, which matters when a gate is
// placed purely for delay (buffers, margin tuning).

func isConst(a NetID) bool { return a == Const0 || a == Const1 }

// FNot is Not with constant folding.
func (b *Builder) FNot(a NetID) NetID {
	switch a {
	case Const0:
		return Const1
	case Const1:
		return Const0
	}
	return b.Not(a)
}

// FAnd is And with constant folding.
func (b *Builder) FAnd(x, y NetID) NetID {
	if x == Const0 || y == Const0 {
		return Const0
	}
	if x == Const1 {
		return y
	}
	if y == Const1 {
		return x
	}
	if x == y {
		return x
	}
	return b.And(x, y)
}

// FOr is Or with constant folding.
func (b *Builder) FOr(x, y NetID) NetID {
	if x == Const1 || y == Const1 {
		return Const1
	}
	if x == Const0 {
		return y
	}
	if y == Const0 {
		return x
	}
	if x == y {
		return x
	}
	return b.Or(x, y)
}

// FXor is Xor with constant folding.
func (b *Builder) FXor(x, y NetID) NetID {
	if x == Const0 {
		return y
	}
	if y == Const0 {
		return x
	}
	if x == Const1 {
		return b.FNot(y)
	}
	if y == Const1 {
		return b.FNot(x)
	}
	if x == y {
		return Const0
	}
	return b.Xor(x, y)
}

// FXnor is Xnor with constant folding.
func (b *Builder) FXnor(x, y NetID) NetID { return b.FNot(b.FXor(x, y)) }

// FMux is Mux with constant folding.
func (b *Builder) FMux(sel, d0, d1 NetID) NetID {
	switch sel {
	case Const0:
		return d0
	case Const1:
		return d1
	}
	if d0 == d1 {
		return d0
	}
	if d0 == Const0 && d1 == Const1 {
		return sel
	}
	if d0 == Const1 && d1 == Const0 {
		return b.Not(sel)
	}
	if d0 == Const0 {
		return b.FAnd(sel, d1)
	}
	if d1 == Const0 {
		return b.FAnd(b.FNot(sel), d0)
	}
	if d0 == Const1 {
		return b.FOr(b.FNot(sel), d1)
	}
	if d1 == Const1 {
		return b.FOr(sel, d0)
	}
	return b.Mux(sel, d0, d1)
}

// FHalfAdd is HalfAdd with constant folding.
func (b *Builder) FHalfAdd(x, y NetID) (sum, carry NetID) {
	if x == Const0 {
		return y, Const0
	}
	if y == Const0 {
		return x, Const0
	}
	if x == Const1 && y == Const1 {
		return Const0, Const1
	}
	if x == Const1 {
		return b.FNot(y), y
	}
	if y == Const1 {
		return b.FNot(x), x
	}
	return b.HalfAdd(x, y)
}

// FFullAdd is FullAdd with constant folding.
func (b *Builder) FFullAdd(x, y, cin NetID) (sum, carry NetID) {
	// Normalize constants towards cin, then x.
	if isConst(y) && !isConst(cin) {
		y, cin = cin, y
	}
	if isConst(x) && !isConst(y) {
		x, y = y, x
	}
	switch cin {
	case Const0:
		return b.FHalfAdd(x, y)
	case Const1:
		if x == Const1 && y == Const1 {
			return Const1, Const1
		}
		if y == Const1 {
			return x, Const1
		}
		if x == Const1 {
			return y, Const1
		}
		// x + y + 1: sum = XNOR, carry = OR.
		return b.FXnor(x, y), b.FOr(x, y)
	}
	return b.FullAdd(x, y, cin)
}

// FMuxBus applies FMux bitwise.
func (b *Builder) FMuxBus(sel NetID, d0, d1 Bus) Bus {
	b.checkWidths("FMuxBus", d0, d1)
	out := make(Bus, len(d0))
	for i := range d0 {
		out[i] = b.FMux(sel, d0[i], d1[i])
	}
	return out
}

// FAndWith masks every bit of x with m, folding constants.
func (b *Builder) FAndWith(x Bus, m NetID) Bus {
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.FAnd(x[i], m)
	}
	return out
}

// FNotBus complements every bit with folding.
func (b *Builder) FNotBus(x Bus) Bus {
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.FNot(x[i])
	}
	return out
}
