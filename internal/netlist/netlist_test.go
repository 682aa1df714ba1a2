package netlist_test

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"teva/internal/cell"
	"teva/internal/logicsim"
	"teva/internal/netlist"
	"teva/internal/prng"
)

var lib = cell.Default()

// harness bundles a built netlist with a zero-delay simulator for oracle
// comparisons against native integer arithmetic.
type harness struct {
	n   *netlist.Netlist
	sim *logicsim.Sim
	in  []bool
}

func newHarness(t *testing.T, b *netlist.Builder) *harness {
	t.Helper()
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &harness{n: n, sim: logicsim.New(n.Compiled()), in: make([]bool, len(n.Inputs()))}
}

func (h *harness) setBus(offset, width int, v uint64) {
	logicsim.PackInputs(h.in, offset, width, v)
}

func (h *harness) run() { h.sim.Run(h.in) }

func (h *harness) bus(b netlist.Bus) uint64 { return h.sim.ReadBus(b) }

// arrayMultiplier returns the full 2w-bit product of two w-bit unsigned
// buses: partial products, a carry-save reduction tree and a final ripple
// carry-propagate adder (the 2w-bit product cannot carry out of it).
func arrayMultiplier(b *netlist.Builder, x, y netlist.Bus) netlist.Bus {
	addends := b.CompressAddends(b.PartialProducts(x, y), 2)
	return b.Sum(b.RippleAdder(addends[0], addends[1], netlist.Const0))
}

func TestBuilderConstants(t *testing.T) {
	b := netlist.NewBuilder("const", lib, 1)
	c := b.Constant(0b1011, 6)
	b.Output(c)
	h := newHarness(t, b)
	h.run()
	if got := h.bus(c); got != 0b1011 {
		t.Fatalf("constant = %b", got)
	}
	if h.n.NumGates() != 0 {
		t.Fatal("constants must not create gates")
	}
}

func TestConstantFolding(t *testing.T) {
	b := netlist.NewBuilder("fold", lib, 1)
	x := b.InputNet()
	// All of these fold away.
	r1 := b.FAnd(x, netlist.Const0)
	r2 := b.FOr(x, netlist.Const0)
	r3 := b.FXor(x, netlist.Const0)
	r4 := b.FMux(netlist.Const1, netlist.Const0, x)
	if r1 != netlist.Const0 || r2 != x || r3 != x || r4 != x {
		t.Fatal("folding identities failed")
	}
	s, c := b.FHalfAdd(x, netlist.Const0)
	if s != x || c != netlist.Const0 {
		t.Fatal("FHalfAdd fold failed")
	}
	b.Output(netlist.Bus{x})
	h := newHarness(t, b)
	if h.n.NumGates() != 0 {
		t.Fatalf("folded circuit has %d gates", h.n.NumGates())
	}
}

func TestFoldedGatesMatchUnfolded(t *testing.T) {
	// For every primitive, folded and unfolded versions must agree on all
	// input combinations including constants.
	b := netlist.NewBuilder("foldcheck", lib, 3)
	x := b.InputNet()
	y := b.InputNet()
	z := b.InputNet()
	nets := []netlist.NetID{x, y, z, netlist.Const0, netlist.Const1}
	var outs netlist.Bus
	type pair struct{ folded, plain netlist.NetID }
	var pairs []pair
	add := func(f, p netlist.NetID) {
		pairs = append(pairs, pair{f, p})
		outs = append(outs, f, p)
	}
	for _, a := range nets {
		add(b.FNot(a), b.Not(a))
		for _, c := range nets {
			add(b.FAnd(a, c), b.And(a, c))
			add(b.FOr(a, c), b.Or(a, c))
			add(b.FXor(a, c), b.Xor(a, c))
			add(b.FXnor(a, c), b.Xnor(a, c))
			for _, d := range nets {
				add(b.FMux(a, c, d), b.Mux(a, c, d))
				fs, fc := b.FFullAdd(c, d, a)
				s, cr := b.FullAdd(c, d, a)
				add(fs, s)
				add(fc, cr)
			}
			fs, fc := b.FHalfAdd(a, c)
			s, cr := b.HalfAdd(a, c)
			add(fs, s)
			add(fc, cr)
		}
	}
	b.Output(outs)
	h := newHarness(t, b)
	for v := 0; v < 8; v++ {
		h.setBus(0, 3, uint64(v))
		h.run()
		for i, p := range pairs {
			if h.sim.Value(p.folded) != h.sim.Value(p.plain) {
				t.Fatalf("pair %d diverges for input %03b", i, v)
			}
		}
	}
}

func TestRippleAdder(t *testing.T) {
	const w = 16
	b := netlist.NewBuilder("add", lib, 2)
	x := b.Input(w)
	y := b.Input(w)
	cin := b.InputNet()
	sum, cout := b.RippleAdder(x, y, cin)
	b.Output(append(append(netlist.Bus{}, sum...), cout))
	h := newHarness(t, b)
	src := prng.New(99)
	for i := 0; i < 2000; i++ {
		a := src.Uint64() & (1<<w - 1)
		c := src.Uint64() & (1<<w - 1)
		ci := src.Uint64() & 1
		h.setBus(0, w, a)
		h.setBus(w, w, c)
		h.in[2*w] = ci == 1
		h.run()
		want := a + c + ci
		if got := h.bus(sum); got != want&(1<<w-1) {
			t.Fatalf("%d+%d+%d: sum %d want %d", a, c, ci, got, want&(1<<w-1))
		}
		if got := h.sim.Value(cout); got != (want>>w == 1) {
			t.Fatalf("%d+%d+%d: cout %v", a, c, ci, got)
		}
	}
}

func TestIncrementAndNegate(t *testing.T) {
	const w = 10
	b := netlist.NewBuilder("inc", lib, 4)
	x := b.Input(w)
	cin := b.InputNet()
	inc := b.Sum(b.Increment(x, cin))
	neg := b.Negate(x)
	b.Output(inc)
	b.Output(neg)
	h := newHarness(t, b)
	mask := uint64(1<<w - 1)
	for a := uint64(0); a <= mask; a++ {
		for _, ci := range []uint64{0, 1} {
			h.setBus(0, w, a)
			h.in[w] = ci == 1
			h.run()
			if got := h.bus(inc); got != (a+ci)&mask {
				t.Fatalf("inc(%d,%d) = %d", a, ci, got)
			}
			if got := h.bus(neg); got != (-a)&mask {
				t.Fatalf("neg(%d) = %d", a, got)
			}
		}
	}
}

func TestShifters(t *testing.T) {
	const w = 16
	const aw = 5
	b := netlist.NewBuilder("shift", lib, 7)
	x := b.Input(w)
	amt := b.Input(aw)
	sr := b.ShiftRight(x, amt, netlist.Const0)
	sl := b.ShiftLeft(x, amt)
	sticky := b.StickyRight(x, amt)
	b.Output(sr)
	b.Output(sl)
	b.Output(netlist.Bus{sticky})
	h := newHarness(t, b)
	src := prng.New(8)
	mask := uint64(1<<w - 1)
	for i := 0; i < 3000; i++ {
		a := src.Uint64() & mask
		s := src.Uint64() & (1<<aw - 1)
		h.setBus(0, w, a)
		h.setBus(w, aw, s)
		h.run()
		wantSR := uint64(0)
		if s < 64 {
			wantSR = a >> s
		}
		if got := h.bus(sr); got != wantSR {
			t.Fatalf("%d>>%d = %d want %d", a, s, got, wantSR)
		}
		wantSL := uint64(0)
		if s < 64 {
			wantSL = a << s & mask
		}
		if got := h.bus(sl); got != wantSL {
			t.Fatalf("%d<<%d = %d want %d", a, s, got, wantSL)
		}
		var dropped uint64
		if s >= w {
			dropped = a
		} else {
			dropped = a & (1<<s - 1)
		}
		if got := h.sim.Value(sticky); got != (dropped != 0) {
			t.Fatalf("sticky(%d, %d) = %v", a, s, got)
		}
	}
}

func TestArithmeticShiftRight(t *testing.T) {
	const w = 8
	b := netlist.NewBuilder("sra", lib, 17)
	x := b.Input(w)
	amt := b.Input(3)
	sr := b.ShiftRight(x, amt, x[w-1])
	b.Output(sr)
	h := newHarness(t, b)
	for a := uint64(0); a < 256; a++ {
		for s := uint64(0); s < 8; s++ {
			h.setBus(0, w, a)
			h.setBus(w, 3, s)
			h.run()
			want := uint64(int8(a)>>s) & 0xff
			if got := h.bus(sr); got != want {
				t.Fatalf("sra(%d,%d) = %d want %d", a, s, got, want)
			}
		}
	}
}

func TestNormalizeLeft(t *testing.T) {
	const w = 24
	b := netlist.NewBuilder("norm", lib, 9)
	x := b.Input(w)
	shifted, count := b.NormalizeLeft(x, 5)
	b.Output(shifted)
	b.Output(count)
	h := newHarness(t, b)
	src := prng.New(10)
	mask := uint64(1<<w - 1)
	check := func(a uint64) {
		h.setBus(0, w, a)
		h.run()
		if a == 0 {
			return // all-zero input: count saturates, value stays zero
		}
		lz := bits.LeadingZeros64(a) - (64 - w)
		if got := h.bus(count); got != uint64(lz) {
			t.Fatalf("lzc(%b) = %d want %d", a, got, lz)
		}
		if got := h.bus(shifted); got != a<<uint(lz)&mask {
			t.Fatalf("normalize(%b) = %b", a, got)
		}
	}
	for i := 0; i < 2000; i++ {
		// Bias towards small values so high leading-zero counts occur.
		shift := src.Intn(w)
		check(src.Uint64() & mask >> uint(shift))
	}
	for i := 0; i < w; i++ {
		check(1 << uint(i))
	}
}

func TestComparators(t *testing.T) {
	const w = 9
	b := netlist.NewBuilder("cmp", lib, 11)
	x := b.Input(w)
	y := b.Input(w)
	eq := b.Equal(x, y)
	lt := b.LessUnsigned(x, y)
	zero := b.IsZero(x)
	ones := b.IsOnes(x)
	b.Output(netlist.Bus{eq, lt, zero, ones})
	h := newHarness(t, b)
	src := prng.New(12)
	mask := uint64(1<<w - 1)
	for i := 0; i < 3000; i++ {
		a := src.Uint64() & mask
		c := src.Uint64() & mask
		if i%5 == 0 {
			c = a // exercise equality often
		}
		h.setBus(0, w, a)
		h.setBus(w, w, c)
		h.run()
		if h.sim.Value(eq) != (a == c) {
			t.Fatalf("eq(%d,%d)", a, c)
		}
		if h.sim.Value(lt) != (a < c) {
			t.Fatalf("lt(%d,%d)", a, c)
		}
		if h.sim.Value(zero) != (a == 0) {
			t.Fatalf("zero(%d)", a)
		}
		if h.sim.Value(ones) != (a == mask) {
			t.Fatalf("ones(%d)", a)
		}
	}
}

func TestReduceOps(t *testing.T) {
	const w = 7
	b := netlist.NewBuilder("reduce", lib, 14)
	x := b.Input(w)
	or := b.ReduceOr(x)
	and := b.ReduceAnd(x)
	xor := b.ReduceXor(x)
	b.Output(netlist.Bus{or, and, xor})
	h := newHarness(t, b)
	for v := uint64(0); v < 1<<w; v++ {
		h.setBus(0, w, v)
		h.run()
		if h.sim.Value(or) != (v != 0) {
			t.Fatalf("reduceOr(%b)", v)
		}
		if h.sim.Value(and) != (v == 1<<w-1) {
			t.Fatalf("reduceAnd(%b)", v)
		}
		if h.sim.Value(xor) != (bits.OnesCount64(v)%2 == 1) {
			t.Fatalf("reduceXor(%b)", v)
		}
	}
}

func TestTopologicalOrder(t *testing.T) {
	b := netlist.NewBuilder("topo", lib, 15)
	x := b.Input(8)
	y := b.Input(8)
	p := arrayMultiplier(b, x, y)
	b.Output(p)
	h := newHarness(t, b)
	n := h.n
	seen := make([]bool, n.NumNets())
	seen[netlist.Const0], seen[netlist.Const1] = true, true
	for _, in := range n.Inputs() {
		seen[in] = true
	}
	c := n.Compiled()
	for gi := int32(0); gi < int32(c.NumGates); gi++ {
		for _, in := range c.Pins(gi) {
			if !seen[in] {
				t.Fatal("gate reads a net not yet produced: storage not topological")
			}
		}
		seen[c.Out[gi]] = true
	}
}

func TestStatsAndUnits(t *testing.T) {
	b := netlist.NewBuilder("stats", lib, 16)
	b.SetUnit("alpha")
	x := b.Input(4)
	y := b.Input(4)
	s1 := b.Sum(b.RippleAdder(x, y, netlist.Const0))
	b.SetUnit("beta")
	s2 := b.XorBus(s1, x)
	b.Output(s2)
	h := newHarness(t, b)
	st := h.n.Stats()
	if st.Gates == 0 || st.MaxDepth == 0 || st.Inputs != 8 || st.Outputs != 4 {
		t.Fatalf("stats %+v", st)
	}
	var alpha, beta int
	c := h.n.Compiled()
	for gi := int32(0); gi < int32(c.NumGates); gi++ {
		switch unit := c.UnitName(gi); unit {
		case "alpha":
			alpha++
		case "beta":
			beta++
		default:
			t.Fatalf("gate with unexpected unit %q", unit)
		}
	}
	if alpha == 0 || beta == 0 {
		t.Fatal("unit tags not applied")
	}
	if h.n.TotalEnergy() <= 0 {
		t.Fatal("TotalEnergy must be positive")
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	b := netlist.NewBuilder("panic", lib, 17)
	x := b.Input(4)
	y := b.Input(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	b.AndBus(x, y)
}

func TestInterconnectDeterminism(t *testing.T) {
	build := func() *netlist.Netlist {
		b := netlist.NewBuilder("det", lib, 31)
		x := b.Input(8)
		y := b.Input(8)
		s := b.Sum(b.RippleAdder(x, y, netlist.Const0))
		b.Output(s)
		return b.MustBuild()
	}
	c1, c2 := build().Compiled(), build().Compiled()
	if c1.NumGates != c2.NumGates {
		t.Fatal("gate counts differ")
	}
	if !slices.Equal(c1.Rise, c2.Rise) || !slices.Equal(c1.Fall, c2.Fall) {
		t.Fatal("same seed produced different interconnect delays")
	}
	// A different seed must change the placement noise.
	b := netlist.NewBuilder("det", lib, 32)
	x := b.Input(8)
	y := b.Input(8)
	s := b.Sum(b.RippleAdder(x, y, netlist.Const0))
	b.Output(s)
	c3 := b.MustBuild().Compiled()
	if slices.Equal(c3.Rise, c1.Rise) && slices.Equal(c3.Fall, c1.Fall) {
		t.Fatal("different seeds produced identical interconnect delays")
	}
}

func TestHybridAdder(t *testing.T) {
	for _, tc := range []struct{ w, block int }{{16, 4}, {24, 8}, {13, 5}, {8, 16}} {
		b := netlist.NewBuilder("hybrid", lib, 21)
		x := b.Input(tc.w)
		y := b.Input(tc.w)
		cin := b.InputNet()
		sum, cout := b.HybridAdder(x, y, cin, tc.block)
		b.Output(append(append(netlist.Bus{}, sum...), cout))
		h := newHarness(t, b)
		src := prng.New(uint64(tc.w * tc.block))
		mask := uint64(1<<tc.w - 1)
		for i := 0; i < 2000; i++ {
			a := src.Uint64() & mask
			c := src.Uint64() & mask
			ci := src.Uint64() & 1
			h.setBus(0, tc.w, a)
			h.setBus(tc.w, tc.w, c)
			h.in[2*tc.w] = ci == 1
			h.run()
			want := a + c + ci
			if got := h.bus(sum); got != want&mask {
				t.Fatalf("w=%d b=%d: %d+%d+%d = %d want %d", tc.w, tc.block, a, c, ci, got, want&mask)
			}
			if got := h.sim.Value(cout); got != (want>>tc.w == 1) {
				t.Fatalf("w=%d b=%d: cout wrong for %d+%d+%d", tc.w, tc.block, a, c, ci)
			}
		}
	}
}

func TestHybridAddSub(t *testing.T) {
	const w = 14
	b := netlist.NewBuilder("haddsub", lib, 22)
	x := b.Input(w)
	y := b.Input(w)
	sub := b.InputNet()
	res, flag := b.HybridAddSub(x, y, sub, 4)
	b.Output(append(append(netlist.Bus{}, res...), flag))
	h := newHarness(t, b)
	src := prng.New(23)
	mask := uint64(1<<w - 1)
	for i := 0; i < 2000; i++ {
		a := src.Uint64() & mask
		c := src.Uint64() & mask
		doSub := src.Bool()
		h.setBus(0, w, a)
		h.setBus(w, w, c)
		h.in[2*w] = doSub
		h.run()
		want := (a + c) & mask
		if doSub {
			want = (a - c) & mask
		}
		if got := h.bus(res); got != want {
			t.Fatalf("hybrid addsub(%d,%d,%v) = %d want %d", a, c, doSub, got, want)
		}
	}
}

func TestHybridAdderShorterCriticalPath(t *testing.T) {
	// The bypass chain must beat the pure ripple adder's critical path by
	// a wide margin; this is the property the FPU calibration relies on.
	build := func(hybrid bool) *netlist.Netlist {
		b := netlist.NewBuilder("cmp", lib, 24)
		x := b.Input(64)
		y := b.Input(64)
		var sum netlist.Bus
		if hybrid {
			sum = b.Sum(b.HybridAdder(x, y, netlist.Const0, 8))
		} else {
			sum = b.Sum(b.RippleAdder(x, y, netlist.Const0))
		}
		b.Output(sum)
		return b.MustBuild()
	}
	depth := func(n *netlist.Netlist) int { return n.Stats().MaxDepth }
	if dh, dr := depth(build(true)), depth(build(false)); dh*2 > dr {
		t.Fatalf("hybrid depth %d not much shorter than ripple depth %d", dh, dr)
	}
}

func TestCompressAddends(t *testing.T) {
	const w = 16
	b := netlist.NewBuilder("csa", lib, 25)
	addends := make([]netlist.Bus, 5)
	for i := range addends {
		addends[i] = b.Input(w)
	}
	two := b.CompressAddends(addends, 2)
	if len(two) != 2 {
		t.Fatalf("compressed to %d addends", len(two))
	}
	sum := b.Sum(b.RippleAdder(two[0], two[1], netlist.Const0))
	b.Output(sum)
	h := newHarness(t, b)
	src := prng.New(29)
	mask := uint64(1<<w - 1)
	for i := 0; i < 2000; i++ {
		var want uint64
		for j := range addends {
			v := src.Uint64() & mask
			h.setBus(j*w, w, v)
			want += v
		}
		h.run()
		if got := h.bus(sum); got != want&mask {
			t.Fatalf("compressed sum %d want %d", got, want&mask)
		}
	}
}

func TestDetourAddsDelay(t *testing.T) {
	b := netlist.NewBuilder("detour", lib, 26)
	x := b.InputNet()
	out := b.Detour(x, 500)
	b.Output(netlist.Bus{out})
	h := newHarness(t, b)
	c := h.n.Compiled()
	if c.Rise[0] < 500 || c.Fall[0] < 500 {
		t.Fatalf("detour delay not applied: rise %v fall %v", c.Rise[0], c.Fall[0])
	}
	h.in[0] = true
	h.run()
	if !h.sim.Value(out) {
		t.Fatal("detour must be logically transparent")
	}
}

func TestQuickHybridAdderMatchesNative(t *testing.T) {
	const w = 32
	b := netlist.NewBuilder("qh", lib, 33)
	x := b.Input(w)
	y := b.Input(w)
	sum, cout := b.HybridAdder(x, y, netlist.Const0, 16)
	b.Output(append(append(netlist.Bus{}, sum...), cout))
	h := newHarness(t, b)
	if err := quick.Check(func(a, c uint32) bool {
		h.setBus(0, w, uint64(a))
		h.setBus(w, w, uint64(c))
		h.run()
		want := uint64(a) + uint64(c)
		return h.bus(sum) == want&(1<<w-1) && h.sim.Value(cout) == (want>>w == 1)
	}, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMultiplierMatchesNative(t *testing.T) {
	const w = 12
	b := netlist.NewBuilder("qm", lib, 34)
	x := b.Input(w)
	y := b.Input(w)
	p := arrayMultiplier(b, x, y)
	b.Output(p)
	h := newHarness(t, b)
	if err := quick.Check(func(a, c uint16) bool {
		av, cv := uint64(a&(1<<w-1)), uint64(c&(1<<w-1))
		h.setBus(0, w, av)
		h.setBus(w, w, cv)
		h.run()
		return h.bus(p) == av*cv
	}, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestDetourRejectsNegative(t *testing.T) {
	b := netlist.NewBuilder("neg", lib, 35)
	x := b.InputNet()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative detour")
		}
	}()
	b.Detour(x, -1)
}

func TestCompressAddendsRejectsBadTarget(t *testing.T) {
	b := netlist.NewBuilder("bad", lib, 36)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for target < 2")
		}
	}()
	b.CompressAddends([]netlist.Bus{b.Input(4)}, 1)
}

func TestNormalizeLeftRejectsNarrowCount(t *testing.T) {
	b := netlist.NewBuilder("narrow", lib, 37)
	x := b.Input(16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for insufficient count width")
		}
	}()
	b.NormalizeLeft(x, 3)
}

func TestVaryPreservesFunctionChangesDelays(t *testing.T) {
	b := netlist.NewBuilder("vary", lib, 38)
	x := b.Input(12)
	y := b.Input(12)
	sum := b.Sum(b.RippleAdder(x, y, netlist.Const0))
	b.Output(sum)
	base := b.MustBuild()
	before := slices.Clone(base.Compiled().Rise)
	die1 := base.Vary(0.05, 1)
	die2 := base.Vary(0.05, 2)
	die1b := base.Vary(0.05, 1)

	// Function identical across dies.
	s0 := logicsim.New(base.Compiled())
	s1 := logicsim.New(die1.Compiled())
	src := prng.New(99)
	in := make([]bool, 24)
	for trial := 0; trial < 500; trial++ {
		for i := range in {
			in[i] = src.Bool()
		}
		s0.Run(in)
		s1.Run(in)
		for _, out := range base.Outputs() {
			if s0.Value(out) != s1.Value(out) {
				t.Fatal("variation changed logic function")
			}
		}
	}
	// Delays changed, deterministically per seed, differently per die.
	var changed, differs bool
	c0, c1, c2, c1b := base.Compiled(), die1.Compiled(), die2.Compiled(), die1b.Compiled()
	for gi := 0; gi < c0.NumGates; gi++ {
		pi := gi * c0.Stride
		d0 := cell.PinDelay{Rise: c0.Rise[pi], Fall: c0.Fall[pi]}
		d1 := cell.PinDelay{Rise: c1.Rise[pi], Fall: c1.Fall[pi]}
		d2 := cell.PinDelay{Rise: c2.Rise[pi], Fall: c2.Fall[pi]}
		d1b := cell.PinDelay{Rise: c1b.Rise[pi], Fall: c1b.Fall[pi]}
		if d1 != d1b {
			t.Fatal("same seed must reproduce the same die")
		}
		if d1 != d0 {
			changed = true
		}
		if d1 != d2 {
			differs = true
		}
	}
	if !slices.Equal(before, c0.Rise) {
		t.Fatal("original netlist mutated")
	}
	if !changed || !differs {
		t.Fatal("variation had no effect")
	}
}

func TestVaryRejectsNegativeSigma(t *testing.T) {
	b := netlist.NewBuilder("vneg", lib, 39)
	x := b.InputNet()
	b.Output(netlist.Bus{b.Not(x)})
	n := b.MustBuild()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Vary(-0.1, 1)
}

func TestPrefixAdder(t *testing.T) {
	for _, w := range []int{8, 16, 24} {
		b := netlist.NewBuilder("prefix", lib, uint64(40+w))
		x := b.Input(w)
		y := b.Input(w)
		cin := b.InputNet()
		sum, cout := b.PrefixAdder(x, y, cin)
		b.Output(append(append(netlist.Bus{}, sum...), cout))
		h := newHarness(t, b)
		src := prng.New(uint64(w))
		mask := uint64(1<<w - 1)
		for i := 0; i < 3000; i++ {
			a := src.Uint64() & mask
			c := src.Uint64() & mask
			ci := src.Uint64() & 1
			h.setBus(0, w, a)
			h.setBus(w, w, c)
			h.in[2*w] = ci == 1
			h.run()
			want := a + c + ci
			if got := h.bus(sum); got != want&mask {
				t.Fatalf("w=%d: %d+%d+%d = %d want %d", w, a, c, ci, got, want&mask)
			}
			if got := h.sim.Value(cout); got != (want>>w == 1) {
				t.Fatalf("w=%d: cout wrong", w)
			}
		}
	}
}

func TestPrefixAdderLogDepth(t *testing.T) {
	build := func(prefix bool) int {
		b := netlist.NewBuilder("depth", lib, 41)
		x := b.Input(64)
		y := b.Input(64)
		var sum netlist.Bus
		if prefix {
			sum = b.Sum(b.PrefixAdder(x, y, netlist.Const0))
		} else {
			sum = b.Sum(b.RippleAdder(x, y, netlist.Const0))
		}
		b.Output(sum)
		return b.MustBuild().Stats().MaxDepth
	}
	dp, dr := build(true), build(false)
	if dp*4 > dr {
		t.Fatalf("prefix depth %d not much shallower than ripple %d", dp, dr)
	}
}
