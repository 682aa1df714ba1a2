package netlist

import "teva/internal/cell"

// Compiled is the flat structure-of-arrays form of a finalized netlist,
// and its only form: Build writes it once (immutable, shared by every
// engine instance and worker) and it is what the simulation engines —
// logicsim (scalar and 64-wide), timingsim.WideFastSim,
// timingsim.ExactSim, the test-only reference timingsim.FastSim, and
// sta — iterate: gates are opcode-dispatched array walks in topological
// storage order, with no closure or interface calls and no per-gate
// slice headers on the hot path.
//
// Input pins are stored stride-padded: gate gi's pins occupy
// In[gi*Stride : gi*Stride+NumIn[gi]], and unused slots hold Const0 (net
// 0, constant false), so engines may load Stride pins unconditionally —
// the opcode's function ignores lanes beyond its arity, and Const0 never
// changes, so activity scans over padded slots are also safe. Rise/Fall
// delays use the same indexing; fanout entries keep construction order,
// which preserves event order (and therefore bit-identical simulation
// results) with the original per-gate walk.
type Compiled struct {
	// Name labels the source circuit.
	Name string
	// NumNets counts nets including the two constants.
	NumNets int
	// NumGates counts gate instances.
	NumGates int
	// Inputs and Outputs are the primary nets, aliased from the netlist.
	Inputs, Outputs []NetID
	// MaxFanIn is the widest gate fan-in in this circuit.
	MaxFanIn int
	// Stride is the padded per-gate pin count (>= MaxFanIn, >= 3 so
	// three-input opcode kernels can always load their operands).
	Stride int

	// Per-gate arrays, topological storage order.
	Op     []cell.OpCode // logic function
	NumIn  []int8        // actual pin count
	In     []int32       // stride-padded input nets (padding = Const0)
	Rise   []float64     // stride-padded per-pin rise delay, ps
	Fall   []float64     // stride-padded per-pin fall delay, ps
	Out    []int32       // output net
	Energy []float64     // dynamic energy per output transition, fJ
	Unit   []int32       // functional-unit tag, an index into Units

	// Units is the name table Unit indexes, in first-use order.
	Units []string

	// Per-net arrays.
	Driver []int32 // driving gate, -1 for inputs/constants

	// Fanout in compressed-sparse-row form: net v's readers are entries
	// FanOff[v]..FanOff[v+1]. One entry per reading pin occurrence, in
	// the order the gates were created in; FanPin is the first pin of
	// that gate connected to the net (the pin the original event-driven
	// engine selected for delay lookup).
	FanOff  []int32
	FanGate []int32
	FanPin  []int32

	// Level schedule in compressed-sparse-row form: the gates at
	// topological level L are Levels[LevelOff[L]:LevelOff[L+1]], in
	// ascending gate-id order. A gate's level is its longest input depth,
	// so every gate at level L reads only nets driven at levels < L (or
	// primary inputs/constants) — engines may process one level's gates
	// in any order, or in parallel, without races. NumLevels is the
	// schedule depth (0 for an empty circuit).
	NumLevels int
	LevelOff  []int32
	Levels    []int32
}

// UnitName returns gate gi's functional-unit tag.
func (c *Compiled) UnitName(gi int32) string { return c.Units[c.Unit[gi]] }

// Pins returns gate gi's actual input nets (a view into the padded
// array; callers must not mutate it).
func (c *Compiled) Pins(gi int32) []int32 {
	base := int(gi) * c.Stride
	return c.In[base : base+int(c.NumIn[gi])]
}
