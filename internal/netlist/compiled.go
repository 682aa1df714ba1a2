package netlist

import (
	"sync"

	"teva/internal/cell"
)

// Compiled is the flat structure-of-arrays simulation IR of a finalized
// netlist. It is produced once per netlist (cached, immutable, shared by
// every engine instance and worker) and is what the simulation engines —
// logicsim (scalar and 64-wide), timingsim.WideFastSim,
// timingsim.ExactSim, the test-only reference timingsim.FastSim, and
// sta — iterate instead of the []Gate slice: gates
// are opcode-dispatched array walks in topological storage order, with no
// closure or interface calls and no per-gate slice headers on the hot
// path.
//
// Input pins are stored stride-padded: gate gi's pins occupy
// In[gi*Stride : gi*Stride+NumIn[gi]], and unused slots hold Const0 (net
// 0, constant false), so engines may load Stride pins unconditionally —
// the opcode's function ignores lanes beyond its arity, and Const0 never
// changes, so activity scans over padded slots are also safe. Rise/Fall
// delays and the per-pin fanout tables use the same indexing conventions
// as the pre-compiled structures, preserving event order (and therefore
// bit-identical simulation results) with the original per-gate walk.
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
	Unit   []string      // functional-unit tag

	// Per-net arrays.
	Driver []int32 // driving gate, -1 for inputs/constants

	// Fanout in compressed-sparse-row form: net v's readers are entries
	// FanOff[v]..FanOff[v+1]. One entry per reading pin occurrence, in
	// the same order the netlist's fanout lists hold them; FanPin is the
	// first pin of that gate connected to the net (the pin the original
	// event-driven engine selected for delay lookup).
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

// compileBox caches a netlist's Compiled form. It lives behind a pointer
// on the Netlist so Vary's shallow copy can reset the cache without
// copying the sync.Once.
type compileBox struct {
	once sync.Once
	c    *Compiled
}

// Compiled returns the netlist's compiled simulation IR, building it on
// first use. The result is immutable and safe to share across
// goroutines; repeated calls return the same instance, so parallel
// analysis shards reuse one IR per stage instead of re-deriving per-gate
// state.
func (n *Netlist) Compiled() *Compiled {
	if n.cbox == nil {
		panic("netlist: Compiled on an unfinalized netlist")
	}
	n.cbox.once.Do(func() { n.cbox.c = n.compile() })
	return n.cbox.c
}

// compile lowers the finalized gate slice into the flat SoA form.
func (n *Netlist) compile() *Compiled {
	numGates := len(n.gates)
	maxFanIn := 1
	for gi := range n.gates {
		if ni := len(n.gates[gi].Inputs); ni > maxFanIn {
			maxFanIn = ni
		}
	}
	stride := maxFanIn
	if stride < 3 {
		stride = 3
	}
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
		Unit:     make([]string, numGates),
		Driver:   make([]int32, n.numNets),
	}
	for gi := range n.gates {
		g := &n.gates[gi]
		base := gi * stride
		c.Op[gi] = g.Op
		c.NumIn[gi] = int8(len(g.Inputs))
		for pin, in := range g.Inputs {
			c.In[base+pin] = int32(in)
			c.Rise[base+pin] = g.Delays[pin].Rise
			c.Fall[base+pin] = g.Delays[pin].Fall
		}
		// Padded slots already read Const0 (zero value) with zero delay.
		c.Out[gi] = int32(g.Output)
		c.Energy[gi] = g.Energy
		c.Unit[gi] = g.Unit
	}
	for net, d := range n.driver {
		c.Driver[net] = int32(d)
	}
	// Fanout CSR, preserving the netlist's per-net entry order.
	c.FanOff = make([]int32, n.numNets+1)
	total := 0
	for net := range n.fanout {
		c.FanOff[net] = int32(total)
		total += len(n.fanout[net])
	}
	c.FanOff[n.numNets] = int32(total)
	c.FanGate = make([]int32, total)
	c.FanPin = make([]int32, total)
	idx := 0
	for net := range n.fanout {
		for _, gid := range n.fanout[net] {
			c.FanGate[idx] = int32(gid)
			pin := int32(0)
			for i, in := range n.gates[gid].Inputs {
				if in == NetID(net) {
					pin = int32(i)
					break
				}
			}
			c.FanPin[idx] = pin
			idx++
		}
	}
	// Level schedule: bucket gates by topological level (counting sort —
	// levels are dense small ints). Gate ids within a level come out
	// ascending because gates are visited in storage order, which keeps
	// the schedule deterministic for any consumer that walks it serially.
	numLevels := 0
	for gi := range n.gates {
		if l := int(n.level[gi]) + 1; l > numLevels {
			numLevels = l
		}
	}
	c.NumLevels = numLevels
	c.LevelOff = make([]int32, numLevels+1)
	for gi := range n.gates {
		c.LevelOff[n.level[gi]+1]++
	}
	for l := 0; l < numLevels; l++ {
		c.LevelOff[l+1] += c.LevelOff[l]
	}
	c.Levels = make([]int32, numGates)
	fill := make([]int32, numLevels)
	copy(fill, c.LevelOff[:numLevels])
	for gi := range n.gates {
		l := n.level[gi]
		c.Levels[fill[l]] = int32(gi)
		fill[l]++
	}
	return c
}

// Pins returns gate gi's actual input nets (a view into the padded
// array; callers must not mutate it).
func (c *Compiled) Pins(gi int32) []int32 {
	base := int(gi) * c.Stride
	return c.In[base : base+int(c.NumIn[gi])]
}
