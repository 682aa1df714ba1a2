package netlist

// Internal tests for finalize's structural validation and for the
// compiled IR's layout invariants (stride padding, CSR fanout).

import (
	"strings"
	"testing"

	"teva/internal/cell"
)

// rawGate describes one gate of a hand-assembled netlist.
type rawGate struct {
	Kind   cell.Kind
	Op     cell.OpCode
	Inputs []NetID
	Output NetID
	Delays []cell.PinDelay
}

// rawNetlist hand-assembles a netlist's build arrays bypassing the
// Builder, so invalid structures can be expressed. A gate with fewer
// delays than pins must come last: the delay arrays run out under it.
func rawNetlist(gates []rawGate, numNets int, inputs, outputs []NetID) *Netlist {
	n := &Netlist{
		Name:    "raw",
		Lib:     cell.Default(),
		numNets: numNets,
		inputs:  inputs,
		outputs: outputs,
		pinOff:  []int32{0},
		units:   []string{""},
	}
	for _, g := range gates {
		n.kind = append(n.kind, g.Kind)
		n.op = append(n.op, g.Op)
		n.out = append(n.out, g.Output)
		n.energy = append(n.energy, 0)
		n.unit = append(n.unit, 0)
		n.pins = append(n.pins, g.Inputs...)
		n.pinOff = append(n.pinOff, int32(len(n.pins)))
		for _, d := range g.Delays {
			n.rise = append(n.rise, d.Rise)
			n.fall = append(n.fall, d.Fall)
		}
	}
	return n
}

func delays(n int) []cell.PinDelay {
	d := make([]cell.PinDelay, n)
	for i := range d {
		d[i] = cell.PinDelay{Rise: 10, Fall: 10}
	}
	return d
}

func TestFinalizeRejectsInvalidGates(t *testing.T) {
	cases := []struct {
		name string
		n    *Netlist
		want string
	}{
		{
			"missing opcode",
			rawNetlist([]rawGate{{Kind: cell.And2, Inputs: []NetID{2, 2}, Output: 3, Delays: delays(2)}},
				4, []NetID{2}, []NetID{3}),
			"has no opcode",
		},
		{
			"arity mismatch",
			rawNetlist([]rawGate{{Kind: cell.And2, Op: cell.OpAnd2, Inputs: []NetID{2}, Output: 3, Delays: delays(1)}},
				4, []NetID{2}, []NetID{3}),
			"opcode needs",
		},
		{
			"delay count mismatch",
			rawNetlist([]rawGate{{Kind: cell.And2, Op: cell.OpAnd2, Inputs: []NetID{2, 2}, Output: 3, Delays: delays(1)}},
				4, []NetID{2}, []NetID{3}),
			"delays for",
		},
		{
			"undriven input net",
			rawNetlist([]rawGate{{Kind: cell.And2, Op: cell.OpAnd2, Inputs: []NetID{2, 3}, Output: 4, Delays: delays(2)}},
				5, []NetID{2}, []NetID{4}),
			"undriven",
		},
		{
			"floating primary input",
			rawNetlist([]rawGate{{Kind: cell.And2, Op: cell.OpAnd2, Inputs: []NetID{2, 2}, Output: 4, Delays: delays(2)}},
				5, []NetID{2, 3}, []NetID{4}),
			"floating",
		},
		{
			"zero-fanout gate output",
			rawNetlist([]rawGate{
				{Kind: cell.And2, Op: cell.OpAnd2, Inputs: []NetID{2, 2}, Output: 3, Delays: delays(2)},
				{Kind: cell.Inv, Op: cell.OpInv, Inputs: []NetID{2}, Output: 4, Delays: delays(1)},
			}, 5, []NetID{2}, []NetID{3}),
			"dead logic",
		},
	}
	for _, tc := range cases {
		err := tc.n.finalize()
		if err == nil {
			t.Fatalf("%s: finalize accepted an invalid netlist", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestFinalizeRejectsFanInAboveLibraryMax(t *testing.T) {
	// With no library the max fan-in floor is 1, so a well-formed 2-input
	// gate must be rejected on the fan-in bound specifically.
	n := rawNetlist([]rawGate{{Kind: cell.And2, Op: cell.OpAnd2, Inputs: []NetID{2, 2}, Output: 3, Delays: delays(2)}},
		4, []NetID{2}, []NetID{3})
	n.Lib = nil
	err := n.finalize()
	if err == nil || !strings.Contains(err.Error(), "exceeds library max") {
		t.Fatalf("fan-in bound not enforced: %v", err)
	}
}

func TestDiscardLegitimizesDeadEnds(t *testing.T) {
	build := func(discard bool) error {
		b := NewBuilder("deadend", cell.Default(), 7)
		x := b.Input(4)
		y := b.Input(4)
		unread := b.InputNet()
		sum, cout := b.RippleAdder(x, y, Const0)
		b.Output(sum)
		if discard {
			b.Discard(cout, unread)
		}
		_, err := b.Build()
		return err
	}
	if err := build(false); err == nil {
		t.Fatal("Build accepted a dead carry-out and a floating input without Discard")
	}
	if err := build(true); err != nil {
		t.Fatalf("Build rejected Discard-marked dead ends: %v", err)
	}
}

func TestCompiledLayoutInvariants(t *testing.T) {
	b := NewBuilder("layout", cell.Default(), 5)
	x := b.Input(8)
	y := b.Input(8)
	sum, cout := b.RippleAdder(x, y, Const0)
	b.Output(append(append(Bus{}, sum...), cout))
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := n.Compiled()
	if c != n.Compiled() {
		t.Fatal("Compiled must return the same instance")
	}
	if c.Stride < 3 || c.Stride < c.MaxFanIn {
		t.Fatalf("stride %d too small for max fan-in %d", c.Stride, c.MaxFanIn)
	}
	if got, want := c.MaxFanIn, cell.Default().MaxFanIn(); got != want {
		t.Fatalf("MaxFanIn = %d, want library's %d", got, want)
	}
	for gi := 0; gi < c.NumGates; gi++ {
		base := gi * c.Stride
		ni := int(c.NumIn[gi])
		if got, want := ni, c.Op[gi].Arity(); got != want {
			t.Fatalf("gate %d: NumIn %d want %d", gi, got, want)
		}
		for p := ni; p < c.Stride; p++ {
			if c.In[base+p] != int32(Const0) {
				t.Fatalf("gate %d pad pin %d points at net %d, want Const0", gi, p, c.In[base+p])
			}
		}
	}
	// CSR fanout: one entry per reading pin occurrence, each naming the
	// first pin of its gate that reads the net.
	occurrences := make([]int, c.NumNets)
	for gi := int32(0); gi < int32(c.NumGates); gi++ {
		for _, in := range c.Pins(gi) {
			occurrences[in]++
		}
	}
	for net := 0; net < c.NumNets; net++ {
		lo, hi := c.FanOff[net], c.FanOff[net+1]
		if int(hi-lo) != occurrences[net] {
			t.Fatalf("net %d: CSR fanout %d entries, gates read it on %d pins", net, hi-lo, occurrences[net])
		}
		for j := lo; j < hi; j++ {
			gi := c.FanGate[j]
			pin := c.FanPin[j]
			if c.In[int(gi)*c.Stride+int(pin)] != int32(net) {
				t.Fatalf("net %d: FanPin %d of gate %d does not read the net", net, pin, gi)
			}
			for p := int32(0); p < pin; p++ {
				if c.In[int(gi)*c.Stride+int(p)] == int32(net) {
					t.Fatalf("net %d: FanPin %d of gate %d is not its first pin on the net", net, pin, gi)
				}
			}
		}
	}
}
