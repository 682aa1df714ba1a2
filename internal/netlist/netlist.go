// Package netlist represents gate-level combinational circuits and provides
// a builder for generating them structurally. It substitutes for the
// synthesis + place-and-route products of the paper's ASIC flow (Section
// III-A): a Verilog gate-level netlist plus SDF delay annotation. Circuits
// are generated from RTL-equivalent Go constructors; each gate instance
// carries per-pin delays taken from the standard-cell library plus a
// deterministic per-net interconnect component standing in for extracted
// wire parasitics.
//
// A netlist has one representation, the flat Compiled arrays every
// engine reads. The Builder appends gates to pointer-free creation-order
// arrays; Build validates them, sorts the gates topologically and writes
// the Compiled form once, at its exact size.
package netlist

import (
	"fmt"

	"teva/internal/cell"
)

// NetID identifies a net (wire) in a netlist. Nets 0 and 1 are the constant
// low/high nets of every netlist.
type NetID int32

// Constant nets present in every netlist.
const (
	Const0 NetID = 0
	Const1 NetID = 1
)

// Netlist is a combinational circuit: a DAG of gates between primary
// inputs (pipeline register outputs) and primary outputs (pipeline
// register inputs).
type Netlist struct {
	// Name labels the circuit ("fpu/dmul/stage3").
	Name string
	// Lib is the library the gates were drawn from.
	Lib *cell.Library

	numNets int
	inputs  []NetID
	outputs []NetID

	// discarded marks nets whose lack of fanout is intentional (e.g. the
	// carry-out of an adder whose width absorbs the result). finalize
	// rejects any other floating input or dead gate output.
	discarded map[NetID]bool

	// kind is each gate's library cell, in creation order (for Stats).
	kind []cell.Kind

	// Creation-order build arrays, dropped by finalize. Gate gi reads
	// pins[pinOff[gi]:pinOff[gi+1]], whose annotated delays sit in the
	// same slots of rise and fall; unit[gi] indexes the units name table.
	op     []cell.OpCode
	out    []NetID
	energy []float64
	unit   []int32
	pinOff []int32
	pins   []NetID
	rise   []float64
	fall   []float64
	units  []string

	c *Compiled
}

// NumNets returns the number of nets, including the two constants.
func (n *Netlist) NumNets() int { return n.numNets }

// NumGates returns the number of gate instances.
func (n *Netlist) NumGates() int { return len(n.kind) }

// Inputs returns the primary input nets.
func (n *Netlist) Inputs() []NetID { return n.inputs }

// Outputs returns the primary output nets.
func (n *Netlist) Outputs() []NetID { return n.outputs }

// Compiled returns the netlist's simulation IR, written by Build. The
// result is immutable and safe to share across goroutines; every call
// returns the same instance.
func (n *Netlist) Compiled() *Compiled { return n.c }

// Stats summarizes a netlist for reports.
type Stats struct {
	Gates    int
	Nets     int
	Inputs   int
	Outputs  int
	MaxDepth int
	ByKind   map[cell.Kind]int
}

// Stats computes summary statistics.
func (n *Netlist) Stats() Stats {
	s := Stats{
		Gates:    len(n.kind),
		Nets:     n.numNets,
		Inputs:   len(n.inputs),
		Outputs:  len(n.outputs),
		MaxDepth: n.c.NumLevels,
		ByKind:   make(map[cell.Kind]int),
	}
	for _, k := range n.kind {
		s.ByKind[k]++
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%d gates, %d nets, %d in, %d out, depth %d",
		s.Gates, s.Nets, s.Inputs, s.Outputs, s.MaxDepth)
}

// finalize validates the structure, orders gates topologically and
// writes the Compiled form. The builder calls it from Build. Errors name
// gates by creation index.
func (n *Netlist) finalize() error {
	numGates := len(n.op)
	maxFanIn := 1
	if n.Lib != nil {
		maxFanIn = n.Lib.MaxFanIn()
	}
	numDelays := min(len(n.rise), len(n.fall))
	for gi := 0; gi < numGates; gi++ {
		lo, hi := int(n.pinOff[gi]), int(n.pinOff[gi+1])
		kind, op, ni := n.kind[gi], n.op[gi], hi-lo
		if op == cell.OpNone {
			return fmt.Errorf("netlist %s: gate %d (%v) has no opcode", n.Name, gi, kind)
		}
		if want := op.Arity(); ni != want {
			return fmt.Errorf("netlist %s: gate %d (%v/%v) has %d pins, opcode needs %d",
				n.Name, gi, kind, op, ni, want)
		}
		if ni > maxFanIn {
			return fmt.Errorf("netlist %s: gate %d (%v) fan-in %d exceeds library max %d",
				n.Name, gi, kind, ni, maxFanIn)
		}
		if nd := max(0, min(numDelays, hi)-lo); nd != ni {
			return fmt.Errorf("netlist %s: gate %d (%v) has %d delays for %d pins",
				n.Name, gi, kind, nd, ni)
		}
	}
	// driver and fanGate hold creation indexes until the renumbering
	// below rewrites them in place.
	driver := make([]int32, n.numNets)
	for i := range driver {
		driver[i] = -1
	}
	for gi, out := range n.out {
		if out == Const0 || out == Const1 {
			return fmt.Errorf("netlist %s: gate %d drives a constant net", n.Name, gi)
		}
		if driver[out] != -1 {
			return fmt.Errorf("netlist %s: net %d has multiple drivers", n.Name, out)
		}
		driver[out] = int32(gi)
	}
	const isInput, isOutput = 1, 2
	flags := make([]uint8, n.numNets)
	flags[Const0], flags[Const1] = isInput, isInput
	for _, in := range n.inputs {
		if driver[in] != -1 {
			return fmt.Errorf("netlist %s: primary input net %d is gate-driven", n.Name, in)
		}
		flags[in] |= isInput
	}
	// Fanout CSR by counting sort: fanOff[v+1] first counts net v's
	// reading pin occurrences, then becomes the prefix sum.
	fanOff := make([]int32, n.numNets+1)
	for gi := 0; gi < numGates; gi++ {
		for _, in := range n.pins[n.pinOff[gi]:n.pinOff[gi+1]] {
			if driver[in] == -1 && flags[in]&isInput == 0 {
				return fmt.Errorf("netlist %s: gate %d reads undriven net %d", n.Name, gi, in)
			}
			fanOff[in+1]++
		}
	}
	for _, out := range n.outputs {
		if driver[out] == -1 && flags[out]&isInput == 0 {
			return fmt.Errorf("netlist %s: primary output net %d undriven", n.Name, out)
		}
		flags[out] |= isOutput
	}

	// Structural lints: every net must go somewhere. A primary input nobody
	// reads or a gate computing a value nobody consumes is almost always a
	// generator bug (a mis-wired operand, a result bit that fell off);
	// intentional dead ends (discarded carry-outs, ignored flag bits) must
	// be declared with Builder.Discard so the intent is in the netlist.
	for _, in := range n.inputs {
		if fanOff[in+1] == 0 && flags[in]&isOutput == 0 && !n.discarded[in] {
			return fmt.Errorf("netlist %s: primary input net %d is floating: no gate reads it and it is not a primary output; remove it or mark it with Discard",
				n.Name, in)
		}
	}
	for gi, out := range n.out {
		if fanOff[out+1] == 0 && flags[out]&isOutput == 0 && !n.discarded[out] {
			return fmt.Errorf("netlist %s: gate %d (%v, unit %q) drives net %d which has zero fanout and is not a primary output; dead logic — remove the gate or mark its output with Discard",
				n.Name, gi, n.kind[gi], n.units[n.unit[gi]], out)
		}
	}
	for v := 0; v < n.numNets; v++ {
		fanOff[v+1] += fanOff[v]
	}
	// One fanout entry per reading pin occurrence, in creation order;
	// fanPin is the first pin of the reader connected to the net.
	fanGate := make([]int32, fanOff[n.numNets])
	fanPin := make([]int32, len(fanGate))
	next := make([]int32, n.numNets)
	copy(next, fanOff)
	for gi := 0; gi < numGates; gi++ {
		pins := n.pins[n.pinOff[gi]:n.pinOff[gi+1]]
		for _, in := range pins {
			first := 0
			for pins[first] != in {
				first++
			}
			fanGate[next[in]] = int32(gi)
			fanPin[next[in]] = int32(first)
			next[in]++
		}
	}

	// Kahn topological sort over gates: a LIFO ready stack seeded in
	// creation order, releasing readers in fanout entry order.
	pending := make([]int32, numGates)
	ready := make([]int32, 0, numGates)
	for gi := 0; gi < numGates; gi++ {
		cnt := int32(0)
		for _, in := range n.pins[n.pinOff[gi]:n.pinOff[gi+1]] {
			if driver[in] != -1 {
				cnt++
			}
		}
		pending[gi] = cnt
		if cnt == 0 {
			ready = append(ready, int32(gi))
		}
	}
	topo := make([]int32, 0, numGates) // storage order -> creation index
	level := make([]int32, numGates)   // per creation index, longest input depth
	for len(ready) > 0 {
		g := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		topo = append(topo, g)
		out := n.out[g]
		for j := fanOff[out]; j < fanOff[out+1]; j++ {
			fo := fanGate[j]
			if lvl := level[g] + 1; lvl > level[fo] {
				level[fo] = lvl
			}
			pending[fo]--
			if pending[fo] == 0 {
				ready = append(ready, fo)
			}
		}
	}
	if len(topo) != numGates {
		return fmt.Errorf("netlist %s: combinational cycle (%d of %d gates ordered)",
			n.Name, len(topo), numGates)
	}
	n.c = n.writeCompiled(topo, level, driver, fanOff, fanGate, fanPin)
	n.discarded = nil
	n.op, n.out, n.energy, n.unit = nil, nil, nil, nil
	n.pinOff, n.pins, n.rise, n.fall, n.units = nil, nil, nil, nil, nil
	return nil
}

// writeCompiled writes the Compiled arrays in topological storage order from
// the validated build arrays, renumbering the creation-indexed driver and
// fanout tables in place.
func (n *Netlist) writeCompiled(topo, level, driver, fanOff, fanGate, fanPin []int32) *Compiled {
	numGates := len(topo)
	maxFanIn := 1
	for gi := 0; gi < numGates; gi++ {
		maxFanIn = max(maxFanIn, int(n.pinOff[gi+1]-n.pinOff[gi]))
	}
	stride := max(maxFanIn, 3)
	c := &Compiled{
		Name:     n.Name,
		NumNets:  n.numNets,
		NumGates: numGates,
		Inputs:   n.inputs,
		Outputs:  n.outputs,
		MaxFanIn: maxFanIn,
		Stride:   stride,
		Op:       make([]cell.OpCode, numGates),
		NumIn:    make([]int8, numGates),
		In:       make([]int32, numGates*stride),
		Rise:     make([]float64, numGates*stride),
		Fall:     make([]float64, numGates*stride),
		Out:      make([]int32, numGates),
		Energy:   make([]float64, numGates),
		Unit:     make([]int32, numGates),
		Units:    n.units,
		Driver:   driver,
		FanOff:   fanOff,
		FanGate:  fanGate,
		FanPin:   fanPin,
	}
	perm := make([]int32, numGates) // creation index -> storage index
	numLevels := 0
	for gi, g := range topo {
		perm[g] = int32(gi)
		numLevels = max(numLevels, int(level[g])+1)
		lo, hi := n.pinOff[g], n.pinOff[g+1]
		base := gi * stride
		c.Op[gi] = n.op[g]
		c.NumIn[gi] = int8(hi - lo)
		// Padded slots keep reading Const0 (zero value) with zero delay.
		for pin, in := range n.pins[lo:hi] {
			c.In[base+pin] = int32(in)
		}
		copy(c.Rise[base:], n.rise[lo:hi])
		copy(c.Fall[base:], n.fall[lo:hi])
		c.Out[gi] = int32(n.out[g])
		c.Energy[gi] = n.energy[g]
		c.Unit[gi] = n.unit[g]
	}
	for net, d := range driver {
		if d != -1 {
			driver[net] = perm[d]
		}
	}
	for j, g := range fanGate {
		fanGate[j] = perm[g]
	}
	// Level schedule: bucket gates by level (counting sort — levels are
	// dense small ints). Visiting gates in storage order keeps each
	// level's ids ascending, so the schedule is deterministic for any
	// consumer that walks it serially.
	c.NumLevels = numLevels
	c.LevelOff = make([]int32, numLevels+1)
	for _, g := range topo {
		c.LevelOff[level[g]+1]++
	}
	for l := 0; l < numLevels; l++ {
		c.LevelOff[l+1] += c.LevelOff[l]
	}
	c.Levels = make([]int32, numGates)
	fill := make([]int32, numLevels)
	copy(fill, c.LevelOff[:numLevels])
	for gi, g := range topo {
		l := level[g]
		c.Levels[fill[l]] = int32(gi)
		fill[l]++
	}
	return c
}

// TotalEnergy sums the per-transition energies of all gates, a proxy for
// the circuit's switched capacitance used in power comparisons.
func (n *Netlist) TotalEnergy() float64 {
	var sum float64
	for _, e := range n.c.Energy {
		sum += e
	}
	return sum
}
