package netlist

import "fmt"

// Arithmetic structure generators. These are the datapath building blocks
// the FPU and ALU are generated from. Architectural choices (ripple vs
// carry-save, array vs tree reduction) are deliberate: they set the
// path-delay profile that dynamic timing analysis measures, mirroring how
// the synthesized marocchino datapath determines the paper's Figure 4.

// RippleAdder returns sum and carry-out of x + y + cin using a ripple
// carry chain. The carry chain's length is data dependent, which is the
// mechanism behind workload-dependent timing errors.
func (b *Builder) RippleAdder(x, y Bus, cin NetID) (Bus, NetID) {
	b.checkWidths("RippleAdder", x, y)
	sum := make(Bus, len(x))
	c := cin
	for i := range x {
		sum[i], c = b.FFullAdd(x[i], y[i], c)
	}
	return sum, c
}

// RippleSub returns x - y and a "no borrow" flag (1 when x >= y),
// implemented as x + ^y + 1.
func (b *Builder) RippleSub(x, y Bus) (Bus, NetID) {
	return b.RippleAdder(x, b.FNotBus(y), Const1)
}

// Increment returns x + cin using a half-adder chain.
func (b *Builder) Increment(x Bus, cin NetID) (Bus, NetID) {
	sum := make(Bus, len(x))
	c := cin
	for i := range x {
		sum[i], c = b.FHalfAdd(x[i], c)
	}
	return sum, c
}

// Negate returns the two's complement of x.
func (b *Builder) Negate(x Bus) Bus {
	return b.Sum(b.Increment(b.FNotBus(x), Const1))
}

// CSA compresses three addends into sum and carry vectors (3:2). The
// returned carry is already shifted left by one position (bit i of carry
// corresponds to weight i, with a constant-zero LSB).
func (b *Builder) CSA(x, y, z Bus) (sum, carry Bus) {
	b.checkWidths("CSA", x, y)
	b.checkWidths("CSA", x, z)
	w := len(x)
	sum = make(Bus, w)
	carry = make(Bus, w)
	carry[0] = Const0
	var lastCarry NetID
	for i := 0; i < w; i++ {
		sum[i], lastCarry = b.FFullAdd(x[i], y[i], z[i])
		if i+1 < w {
			carry[i+1] = lastCarry
		}
	}
	// The top carry falls off the compression width by construction.
	b.Discard(lastCarry)
	return sum, carry
}

// shiftLeftConst rewires x left by s bit positions into a width-w bus,
// filling with constant zero. No gates are created.
func (b *Builder) shiftLeftConst(x Bus, s, w int) Bus {
	out := make(Bus, w)
	for i := range out {
		src := i - s
		if src >= 0 && src < len(x) {
			out[i] = x[src]
		} else {
			out[i] = Const0
		}
	}
	return out
}

// PartialProducts returns the w addends of the unsigned product x*y, each
// 2w bits wide (AND-gated rows shifted into position).
func (b *Builder) PartialProducts(x, y Bus) []Bus {
	b.checkWidths("PartialProducts", x, y)
	w := len(x)
	pw := 2 * w
	addends := make([]Bus, 0, w)
	for i := 0; i < w; i++ {
		pp := b.FAndWith(x, y[i])
		addends = append(addends, b.shiftLeftConst(pp, i, pw))
	}
	return addends
}

// CompressAddends applies carry-save (3:2) levels until at most target
// addends remain (target >= 2). It allows the multiplier's reduction tree
// to be split across pipeline stages.
func (b *Builder) CompressAddends(addends []Bus, target int) []Bus {
	if target < 2 {
		panic("netlist: CompressAddends target must be >= 2")
	}
	for len(addends) > target {
		var next []Bus
		i := 0
		for ; i+2 < len(addends); i += 3 {
			s, c := b.CSA(addends[i], addends[i+1], addends[i+2])
			next = append(next, s, c)
		}
		next = append(next, addends[i:]...)
		if len(next) >= len(addends) {
			break // 2 addends: nothing left to compress
		}
		addends = next
	}
	return addends
}

// HybridAdder returns sum and carry-out of x + y + cin using ripple blocks
// of blockSize bits with a fast generate/propagate block-carry bypass
// chain — the structure of a synthesized carry-select/skip adder. Its
// static critical path is far shorter than a full ripple adder's while the
// dynamic arrival of each sum bit still depends on the actual in-block
// carry runs and on how far the block-carry chain re-evaluates, which is
// what gives the FPU its realistic data-dependent timing-slack profile.
func (b *Builder) HybridAdder(x, y Bus, cin NetID, blockSize int) (Bus, NetID) {
	b.checkWidths("HybridAdder", x, y)
	if blockSize <= 0 {
		panic("netlist: non-positive block size")
	}
	w := len(x)
	sum := make(Bus, w)
	blockCin := cin
	for lo := 0; lo < w; lo += blockSize {
		hi := lo + blockSize
		if hi > w {
			hi = w
		}
		// Fast block generate/propagate from bitwise g/p via a tree.
		type gp struct{ g, p NetID }
		level := make([]gp, 0, hi-lo)
		for i := lo; i < hi; i++ {
			level = append(level, gp{g: b.FAnd(x[i], y[i]), p: b.FXor(x[i], y[i])})
		}
		for len(level) > 1 {
			var next []gp
			i := 0
			for ; i+1 < len(level); i += 2 {
				lo2, hi2 := level[i], level[i+1]
				next = append(next, gp{
					g: b.FOr(hi2.g, b.FAnd(hi2.p, lo2.g)),
					p: b.FAnd(hi2.p, lo2.p),
				})
			}
			if i < len(level) {
				next = append(next, level[i])
			}
			level = next
		}
		// In-block ripple seeded by the (fast) block carry-in.
		c := blockCin
		for i := lo; i < hi; i++ {
			sum[i], c = b.FFullAdd(x[i], y[i], c)
		}
		// Next block's carry-in comes from the bypass chain, not the
		// ripple, so the static path across blocks is two gates per block.
		// The block's ripple carry-out is an unused pin of the last FA.
		b.Discard(c)
		// When the block carry-in is a constant the propagate term folds
		// away, leaving the group-propagate root unconsumed.
		b.Discard(level[0].p)
		blockCin = b.FOr(level[0].g, b.FAnd(level[0].p, blockCin))
	}
	return sum, blockCin
}

// HybridAddSub computes x + y when sub is low and x - y when sub is high
// using HybridAdder; the second result is carry-out/no-borrow.
func (b *Builder) HybridAddSub(x, y Bus, sub NetID, blockSize int) (Bus, NetID) {
	ymod := make(Bus, len(y))
	for i := range y {
		ymod[i] = b.FXor(y[i], sub)
	}
	return b.HybridAdder(x, ymod, sub, blockSize)
}

// ShiftRight returns x >> amt (logical when fill is Const0, arithmetic when
// fill is the sign bit), as a logarithmic barrel shifter. amt is unsigned;
// shift counts >= len(x) produce all-fill.
func (b *Builder) ShiftRight(x Bus, amt Bus, fill NetID) Bus {
	cur := append(Bus(nil), x...)
	w := len(x)
	for k, sel := range amt {
		s := 1 << uint(k)
		if s >= w {
			// Any set bit at or above this weight flushes to fill.
			rest := b.ReduceOr(Bus(amt[k:]))
			flushed := make(Bus, w)
			for i := range flushed {
				flushed[i] = fill
			}
			cur = b.FMuxBus(rest, cur, flushed)
			break
		}
		shifted := make(Bus, w)
		for i := 0; i < w; i++ {
			if i+s < w {
				shifted[i] = cur[i+s]
			} else {
				shifted[i] = fill
			}
		}
		cur = b.FMuxBus(sel, cur, shifted)
	}
	return cur
}

// ShiftLeft returns x << amt as a logarithmic barrel shifter, zero-filling.
func (b *Builder) ShiftLeft(x Bus, amt Bus) Bus {
	cur := append(Bus(nil), x...)
	w := len(x)
	for k, sel := range amt {
		s := 1 << uint(k)
		if s >= w {
			rest := b.ReduceOr(Bus(amt[k:]))
			cur = b.FMuxBus(rest, cur, b.Zeros(w))
			break
		}
		shifted := b.shiftLeftConst(cur, s, w)
		cur = b.FMuxBus(sel, cur, shifted)
	}
	return cur
}

// StickyRight computes OR of the bits shifted out by x >> amt: the sticky
// bit of IEEE-754 alignment. It mirrors ShiftRight's structure, OR-ing the
// discarded bits at each level.
func (b *Builder) StickyRight(x Bus, amt Bus) NetID {
	cur := append(Bus(nil), x...)
	w := len(x)
	sticky := Const0
	for k, sel := range amt {
		s := 1 << uint(k)
		if s >= w {
			rest := b.ReduceOr(Bus(amt[k:]))
			all := b.ReduceOr(cur)
			sticky = b.FOr(sticky, b.FAnd(rest, all))
			break
		}
		dropped := b.ReduceOr(Bus(cur[:s]))
		sticky = b.FOr(sticky, b.FAnd(sel, dropped))
		if k+1 == len(amt) {
			break // no further level reads the shifted value
		}
		shifted := make(Bus, w)
		for i := 0; i < w; i++ {
			if i+s < w {
				shifted[i] = cur[i+s]
			} else {
				shifted[i] = Const0
			}
		}
		cur = b.FMuxBus(sel, cur, shifted)
	}
	return sticky
}

// NormalizeLeft shifts x left until its most significant bit is 1 and
// returns the shifted value plus the applied shift count (the leading-zero
// count). For an all-zero input the result is zero and the count saturates
// at the largest applied shift total. countWidth must satisfy
// 2^countWidth > len(x)-1.
func (b *Builder) NormalizeLeft(x Bus, countWidth int) (Bus, Bus) {
	w := len(x)
	if 1<<uint(countWidth) < w {
		panic(fmt.Sprintf("netlist: NormalizeLeft countWidth %d too small for width %d", countWidth, w))
	}
	cur := append(Bus(nil), x...)
	count := make(Bus, countWidth)
	for i := range count {
		count[i] = Const0
	}
	for k := countWidth - 1; k >= 0; k-- {
		s := 1 << uint(k)
		if s >= w {
			continue
		}
		// Top s bits all zero?
		top := Bus(cur[w-s:])
		topZero := b.FNot(b.ReduceOr(top))
		count[k] = topZero
		cur = b.FMuxBus(topZero, cur, b.shiftLeftConst(cur, s, w))
	}
	return cur, count
}

// Equal returns 1 when x == y.
func (b *Builder) Equal(x, y Bus) NetID {
	b.checkWidths("Equal", x, y)
	bits := make(Bus, len(x))
	for i := range x {
		bits[i] = b.FXnor(x[i], y[i])
	}
	return b.ReduceAnd(bits)
}

// IsZero returns 1 when every bit of x is 0.
func (b *Builder) IsZero(x Bus) NetID { return b.FNot(b.ReduceOr(x)) }

// IsOnes returns 1 when every bit of x is 1.
func (b *Builder) IsOnes(x Bus) NetID { return b.ReduceAnd(x) }

// LessUnsigned returns 1 when x < y (unsigned), via the borrow of x - y.
// Only the borrow is consumed; the difference bus is discarded.
func (b *Builder) LessUnsigned(x, y Bus) NetID {
	diff, noBorrow := b.RippleSub(x, y)
	b.DiscardBus(diff)
	return b.FNot(noBorrow)
}

// PrefixAdder returns sum and carry-out of x + y + cin using a
// Kogge-Stone parallel-prefix carry network: logarithmic static depth
// with little data-dependent spread — the architectural opposite of
// RippleAdder, used by the adder-architecture ablation.
func (b *Builder) PrefixAdder(x, y Bus, cin NetID) (Bus, NetID) {
	b.checkWidths("PrefixAdder", x, y)
	w := len(x)
	g := make(Bus, w)
	p := make(Bus, w)
	for i := 0; i < w; i++ {
		g[i] = b.FAnd(x[i], y[i])
		p[i] = b.FXor(x[i], y[i])
	}
	// Fold the carry-in as generate at a virtual position -1 by updating
	// bit 0: g0' = g0 | p0&cin.
	carry0 := b.FAnd(p[0], cin)
	gk := append(Bus{}, g...)
	pk := append(Bus{}, p...)
	gk[0] = b.FOr(g[0], carry0)
	// Kogge-Stone prefix levels. Group-propagate nodes are computed
	// speculatively for every position; later levels consume only a
	// subset, so the remainder is declared dead up front (a synthesizer
	// would prune them — keeping them preserves the reference structure).
	for d := 1; d < w; d <<= 1 {
		ng := append(Bus{}, gk...)
		np := append(Bus{}, pk...)
		for i := d; i < w; i++ {
			ng[i] = b.FOr(gk[i], b.FAnd(pk[i], gk[i-d]))
			np[i] = b.FAnd(pk[i], pk[i-d])
		}
		b.DiscardBus(np[d:])
		gk, pk = ng, np
	}
	// carries[i] is the carry into bit i.
	sum := make(Bus, w)
	sum[0] = b.FXor(p[0], cin)
	for i := 1; i < w; i++ {
		sum[i] = b.FXor(p[i], gk[i-1])
	}
	return sum, gk[w-1]
}
