package netlist

import (
	"fmt"

	"teva/internal/cell"
	"teva/internal/prng"
)

// Bus is an ordered group of nets, least-significant bit first.
type Bus []NetID

// Width returns the number of bits in the bus.
func (b Bus) Width() int { return len(b) }

// Slice returns bits [lo, hi) of the bus.
func (b Bus) Slice(lo, hi int) Bus { return b[lo:hi] }

// Builder constructs a Netlist. Gate creation methods return the output
// net; bus helpers operate bitwise. The builder annotates every created
// gate with a deterministic interconnect delay derived from its seed,
// standing in for post-place-and-route wire parasitics (the SDF file of
// the paper's flow).
type Builder struct {
	n    *Netlist
	rng  *prng.Source
	unit string
	// unitIdx is unit's index in the netlist's name table; unitIDs
	// interns the table.
	unitIdx int32
	unitIDs map[string]int32
	// wireMax is the largest interconnect delay added to any pin, ps.
	wireMax float64
}

// buildHook, when non-nil, sees every netlist just before Build
// finalizes it. Only tests set it, to check finalize against an
// independent lowering of the same creation-order arrays.
var buildHook func(*Netlist)

// NewBuilder returns a builder for a netlist with the given name over the
// library. The seed determines the interconnect-delay annotation; the same
// seed reproduces the identical "placed" design.
func NewBuilder(name string, lib *cell.Library, seed uint64) *Builder {
	n := &Netlist{Name: name, Lib: lib, numNets: 2, pinOff: []int32{0}}
	b := &Builder{n: n, rng: prng.New(seed), unitIDs: make(map[string]int32), wireMax: 12}
	b.SetUnit("")
	return b
}

// SetUnit sets the functional-unit tag applied to subsequently created
// gates (e.g. "stage2/align"). Used to group timing paths per unit.
func (b *Builder) SetUnit(unit string) {
	id, ok := b.unitIDs[unit]
	if !ok {
		id = int32(len(b.n.units))
		b.n.units = append(b.n.units, unit)
		b.unitIDs[unit] = id
	}
	b.unit, b.unitIdx = unit, id
}

// Unit returns the current functional-unit tag.
func (b *Builder) Unit() string { return b.unit }

// newNet allocates a fresh net.
func (b *Builder) newNet() NetID {
	id := NetID(b.n.numNets)
	b.n.numNets++
	return id
}

// Input declares a primary-input bus of the given width.
func (b *Builder) Input(width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		bus[i] = b.newNet()
		b.n.inputs = append(b.n.inputs, bus[i])
	}
	return bus
}

// InputNet declares a single primary-input net.
func (b *Builder) InputNet() NetID {
	id := b.newNet()
	b.n.inputs = append(b.n.inputs, id)
	return id
}

// Output marks the bus as primary outputs, in order.
func (b *Builder) Output(bus Bus) {
	b.n.outputs = append(b.n.outputs, bus...)
}

// Discard declares that the given nets are intentionally unconsumed (a
// carry-out absorbed by the result width, an ignored flag bit). Build
// rejects any undeclared floating input or zero-fanout gate output, so
// every dead end in a generator must be explicit.
func (b *Builder) Discard(nets ...NetID) {
	if b.n.discarded == nil {
		b.n.discarded = make(map[NetID]bool)
	}
	for _, id := range nets {
		b.n.discarded[id] = true
	}
}

// DiscardBus is Discard over every net of a bus.
func (b *Builder) DiscardBus(x Bus) { b.Discard(x...) }

// Sum discards the carry companion of an adder-style (sum, carry) result
// and returns the sum: the explicit replacement for `sum, _ := ...` now
// that Build rejects undeclared dead logic. Use as b.Sum(b.RippleAdder(x,
// y, cin)).
func (b *Builder) Sum(sum Bus, carry NetID) Bus {
	b.Discard(carry)
	return sum
}

// wire returns a random interconnect delay contribution for one pin.
func (b *Builder) wire() float64 { return b.rng.Float64() * b.wireMax }

// gate instantiates a cell with the default (sum) function.
func (b *Builder) gate(kind cell.Kind, inputs ...NetID) NetID {
	c := b.n.Lib.Cell(kind)
	if len(inputs) != c.Inputs {
		panic(fmt.Sprintf("netlist: %v expects %d inputs, got %d", kind, c.Inputs, len(inputs)))
	}
	return b.place(kind, c.Op, c.Delays, c.Energy, inputs)
}

// place creates the gate instance with annotated delays.
func (b *Builder) place(kind cell.Kind, op cell.OpCode, base []cell.PinDelay, energy float64, inputs []NetID) NetID {
	if len(base) != len(inputs) {
		panic(fmt.Sprintf("netlist: %v has %d pin delays for %d inputs", kind, len(base), len(inputs)))
	}
	n := b.n
	out := b.newNet()
	w := b.wire()
	for _, d := range base {
		n.rise = append(n.rise, d.Rise+w)
		n.fall = append(n.fall, d.Fall+w)
	}
	n.pins = append(n.pins, inputs...)
	n.pinOff = append(n.pinOff, int32(len(n.pins)))
	n.kind = append(n.kind, kind)
	n.op = append(n.op, op)
	n.out = append(n.out, out)
	n.energy = append(n.energy, energy)
	n.unit = append(n.unit, b.unitIdx)
	return out
}

// Single-net logic operators.

// Not returns the complement of a.
func (b *Builder) Not(a NetID) NetID { return b.gate(cell.Inv, a) }

// Buf returns a buffered copy of a (adds delay; used for margin tuning).
func (b *Builder) Buf(a NetID) NetID { return b.gate(cell.Buf, a) }

// And returns x AND y.
func (b *Builder) And(x, y NetID) NetID { return b.gate(cell.And2, x, y) }

// Or returns x OR y.
func (b *Builder) Or(x, y NetID) NetID { return b.gate(cell.Or2, x, y) }

// Nand returns NOT(x AND y).
func (b *Builder) Nand(x, y NetID) NetID { return b.gate(cell.Nand2, x, y) }

// Nor returns NOT(x OR y).
func (b *Builder) Nor(x, y NetID) NetID { return b.gate(cell.Nor2, x, y) }

// Xor returns x XOR y.
func (b *Builder) Xor(x, y NetID) NetID { return b.gate(cell.Xor2, x, y) }

// Xnor returns NOT(x XOR y).
func (b *Builder) Xnor(x, y NetID) NetID { return b.gate(cell.Xnor2, x, y) }

// And3 returns x AND y AND z.
func (b *Builder) And3(x, y, z NetID) NetID { return b.gate(cell.And3, x, y, z) }

// Or3 returns x OR y OR z.
func (b *Builder) Or3(x, y, z NetID) NetID { return b.gate(cell.Or3, x, y, z) }

// Mux returns sel ? d1 : d0.
func (b *Builder) Mux(sel, d0, d1 NetID) NetID { return b.gate(cell.Mux2, d0, d1, sel) }

// HalfAdd returns the sum and carry of x + y using HA cells.
func (b *Builder) HalfAdd(x, y NetID) (sum, carry NetID) {
	c := b.n.Lib.Cell(cell.HA)
	sum = b.place(cell.HA, c.Op, c.Delays, c.Energy, []NetID{x, y})
	carry = b.place(cell.HA, cell.CarryOp(cell.HA), cell.CarryDelays(cell.HA), c.Energy, []NetID{x, y})
	return sum, carry
}

// FullAdd returns the sum and carry of x + y + cin using FA cells.
func (b *Builder) FullAdd(x, y, cin NetID) (sum, carry NetID) {
	c := b.n.Lib.Cell(cell.FA)
	sum = b.place(cell.FA, c.Op, c.Delays, c.Energy, []NetID{x, y, cin})
	carry = b.place(cell.FA, cell.CarryOp(cell.FA), cell.CarryDelays(cell.FA), c.Energy, []NetID{x, y, cin})
	return sum, carry
}

// Bus-wide operators. Buses must have equal widths.

func (b *Builder) checkWidths(op string, x, y Bus) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("netlist: %s width mismatch %d vs %d", op, len(x), len(y)))
	}
}

// NotBus complements every bit.
func (b *Builder) NotBus(x Bus) Bus {
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.Not(x[i])
	}
	return out
}

// AndBus is the bitwise AND of two buses.
func (b *Builder) AndBus(x, y Bus) Bus {
	b.checkWidths("AndBus", x, y)
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.And(x[i], y[i])
	}
	return out
}

// OrBus is the bitwise OR of two buses.
func (b *Builder) OrBus(x, y Bus) Bus {
	b.checkWidths("OrBus", x, y)
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.Or(x[i], y[i])
	}
	return out
}

// XorBus is the bitwise XOR of two buses.
func (b *Builder) XorBus(x, y Bus) Bus {
	b.checkWidths("XorBus", x, y)
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.Xor(x[i], y[i])
	}
	return out
}

// MuxBus selects d1 when sel is high, d0 otherwise, bitwise.
func (b *Builder) MuxBus(sel NetID, d0, d1 Bus) Bus {
	b.checkWidths("MuxBus", d0, d1)
	out := make(Bus, len(d0))
	for i := range d0 {
		out[i] = b.Mux(sel, d0[i], d1[i])
	}
	return out
}

// AndWith masks every bit of x with the single net m.
func (b *Builder) AndWith(x Bus, m NetID) Bus {
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.And(x[i], m)
	}
	return out
}

// Constant returns a bus holding the given unsigned constant.
func (b *Builder) Constant(value uint64, width int) Bus {
	out := make(Bus, width)
	for i := 0; i < width; i++ {
		if value>>uint(i)&1 == 1 {
			out[i] = Const1
		} else {
			out[i] = Const0
		}
	}
	return out
}

// Zeros returns a width-bit bus of constant 0.
func (b *Builder) Zeros(width int) Bus { return b.Constant(0, width) }

// ReduceOr returns the OR of all bits (balanced tree).
func (b *Builder) ReduceOr(x Bus) NetID { return b.reduce(x, b.Or) }

// ReduceAnd returns the AND of all bits (balanced tree).
func (b *Builder) ReduceAnd(x Bus) NetID { return b.reduce(x, b.And) }

// ReduceXor returns the XOR of all bits (balanced tree).
func (b *Builder) ReduceXor(x Bus) NetID { return b.reduce(x, b.Xor) }

func (b *Builder) reduce(x Bus, op func(NetID, NetID) NetID) NetID {
	if len(x) == 0 {
		return Const0
	}
	work := append(Bus(nil), x...)
	for len(work) > 1 {
		var next Bus
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, op(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// Detour inserts a buffer whose input pin carries an extra interconnect
// delay of ps picoseconds, modelling a routing detour in the placed
// design. The FPU generator uses detours to reproduce the per-stage
// margins of the synthesized reference core (an SDF-annotation stand-in).
func (b *Builder) Detour(a NetID, ps float64) NetID {
	if ps < 0 {
		panic("netlist: negative detour")
	}
	c := b.n.Lib.Cell(cell.Buf)
	base := []cell.PinDelay{{Rise: c.Delays[0].Rise + ps, Fall: c.Delays[0].Fall + ps}}
	return b.place(cell.Buf, c.Op, base, c.Energy, []NetID{a})
}

// DetourBus applies Detour to every bit of a bus.
func (b *Builder) DetourBus(x Bus, ps float64) Bus {
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.Detour(x[i], ps)
	}
	return out
}

// BufChain inserts n buffers in series, adding deterministic delay; the
// FPU generator uses it to tune stage margins (the paper tunes margins by
// synthesis constraints).
func (b *Builder) BufChain(a NetID, n int) NetID {
	for i := 0; i < n; i++ {
		a = b.Buf(a)
	}
	return a
}

// BufBus buffers every bit of a bus through n buffers.
func (b *Builder) BufBus(x Bus, n int) Bus {
	out := make(Bus, len(x))
	for i := range x {
		out[i] = b.BufChain(x[i], n)
	}
	return out
}

// Build validates and finalizes the netlist. The builder must not be used
// afterwards.
func (b *Builder) Build() (*Netlist, error) {
	n := b.n
	b.n = nil
	if buildHook != nil {
		buildHook(n)
	}
	if err := n.finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

// MustBuild is Build for generator code paths where a structural error is
// a programming bug.
func (b *Builder) MustBuild() *Netlist {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}
