package netlist

// The legacy netlist pipeline, kept as the oracle for the in-place
// Compiled form: the array-of-structs builder, finalize,
// reorderTopological and compile as they stood before Build wrote the
// Compiled arrays directly. Apart from the legacy* names and the
// removal of the sync.Once cache, the code is unchanged.

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"teva/internal/cell"
	"teva/internal/prng"
)

type legacyGateID int32

// legacyGate is one placed cell instance.
type legacyGate struct {
	Kind   cell.Kind
	Inputs []NetID
	Output NetID
	Op     cell.OpCode
	Delays []cell.PinDelay
	Energy float64
	Unit   string
}

type legacyNetlist struct {
	Name string
	Lib  *cell.Library

	gates   []legacyGate
	numNets int
	inputs  []NetID
	outputs []NetID

	discarded map[NetID]bool

	driver []legacyGateID   // per net, -1 for inputs/constants
	fanout [][]legacyGateID // per net
	topo   []legacyGateID   // gates in topological order
	level  []int32          // per gate, longest input depth
}

// legacyCompiled is the Compiled struct as it was, with string unit tags.
type legacyCompiled struct {
	Name            string
	NumNets         int
	NumGates        int
	Inputs, Outputs []NetID
	MaxFanIn        int
	Stride          int

	Op     []cell.OpCode
	NumIn  []int8
	In     []int32
	Rise   []float64
	Fall   []float64
	Out    []int32
	Energy []float64
	Unit   []string

	Driver []int32

	FanOff  []int32
	FanGate []int32
	FanPin  []int32

	NumLevels int
	LevelOff  []int32
	Levels    []int32
}

type legacyBuilder struct {
	n       *legacyNetlist
	rng     *prng.Source
	unit    string
	wireMax float64
}

func newLegacyBuilder(name string, lib *cell.Library, seed uint64) *legacyBuilder {
	n := &legacyNetlist{Name: name, Lib: lib, numNets: 2}
	return &legacyBuilder{n: n, rng: prng.New(seed), wireMax: 12}
}

func (b *legacyBuilder) SetUnit(unit string) { b.unit = unit }

func (b *legacyBuilder) newNet() NetID {
	id := NetID(b.n.numNets)
	b.n.numNets++
	return id
}

func (b *legacyBuilder) InputNet() NetID {
	id := b.newNet()
	b.n.inputs = append(b.n.inputs, id)
	return id
}

func (b *legacyBuilder) Output(bus Bus) {
	b.n.outputs = append(b.n.outputs, bus...)
}

func (b *legacyBuilder) Discard(nets ...NetID) {
	if b.n.discarded == nil {
		b.n.discarded = make(map[NetID]bool)
	}
	for _, id := range nets {
		b.n.discarded[id] = true
	}
}

func (b *legacyBuilder) wire() float64 { return b.rng.Float64() * b.wireMax }

func (b *legacyBuilder) gate(kind cell.Kind, inputs ...NetID) NetID {
	c := b.n.Lib.Cell(kind)
	if len(inputs) != c.Inputs {
		panic(fmt.Sprintf("netlist: %v expects %d inputs, got %d", kind, c.Inputs, len(inputs)))
	}
	return b.place(kind, c.Op, c.Delays, c.Energy, inputs)
}

func (b *legacyBuilder) place(kind cell.Kind, op cell.OpCode, base []cell.PinDelay, energy float64, inputs []NetID) NetID {
	out := b.newNet()
	delays := make([]cell.PinDelay, len(base))
	w := b.wire()
	for i, d := range base {
		delays[i] = cell.PinDelay{Rise: d.Rise + w, Fall: d.Fall + w}
	}
	b.n.gates = append(b.n.gates, legacyGate{
		Kind:   kind,
		Inputs: append([]NetID(nil), inputs...),
		Output: out,
		Op:     op,
		Delays: delays,
		Energy: energy,
		Unit:   b.unit,
	})
	return out
}

func (b *legacyBuilder) HalfAdd(x, y NetID) (sum, carry NetID) {
	c := b.n.Lib.Cell(cell.HA)
	sum = b.place(cell.HA, c.Op, c.Delays, c.Energy, []NetID{x, y})
	carry = b.place(cell.HA, cell.CarryOp(cell.HA), cell.CarryDelays(cell.HA), c.Energy, []NetID{x, y})
	return sum, carry
}

func (b *legacyBuilder) FullAdd(x, y, cin NetID) (sum, carry NetID) {
	c := b.n.Lib.Cell(cell.FA)
	sum = b.place(cell.FA, c.Op, c.Delays, c.Energy, []NetID{x, y, cin})
	carry = b.place(cell.FA, cell.CarryOp(cell.FA), cell.CarryDelays(cell.FA), c.Energy, []NetID{x, y, cin})
	return sum, carry
}

func (b *legacyBuilder) Detour(a NetID, ps float64) NetID {
	if ps < 0 {
		panic("netlist: negative detour")
	}
	c := b.n.Lib.Cell(cell.Buf)
	base := []cell.PinDelay{{Rise: c.Delays[0].Rise + ps, Fall: c.Delays[0].Fall + ps}}
	return b.place(cell.Buf, c.Op, base, c.Energy, []NetID{a})
}

func (b *legacyBuilder) Build() (*legacyNetlist, error) {
	n := b.n
	b.n = nil
	if err := n.finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *legacyNetlist) Stats() Stats {
	s := Stats{
		Gates:   len(n.gates),
		Nets:    n.numNets,
		Inputs:  len(n.inputs),
		Outputs: len(n.outputs),
		ByKind:  make(map[cell.Kind]int),
	}
	for i := range n.gates {
		s.ByKind[n.gates[i].Kind]++
		if d := int(n.level[i]) + 1; d > s.MaxDepth {
			s.MaxDepth = d
		}
	}
	return s
}

func (n *legacyNetlist) finalize() error {
	maxFanIn := 1
	if n.Lib != nil {
		maxFanIn = n.Lib.MaxFanIn()
	}
	for gi := range n.gates {
		g := &n.gates[gi]
		if g.Op == cell.OpNone {
			return fmt.Errorf("netlist %s: gate %d (%v) has no opcode", n.Name, gi, g.Kind)
		}
		if got, want := len(g.Inputs), g.Op.Arity(); got != want {
			return fmt.Errorf("netlist %s: gate %d (%v/%v) has %d pins, opcode needs %d",
				n.Name, gi, g.Kind, g.Op, got, want)
		}
		if len(g.Inputs) > maxFanIn {
			return fmt.Errorf("netlist %s: gate %d (%v) fan-in %d exceeds library max %d",
				n.Name, gi, g.Kind, len(g.Inputs), maxFanIn)
		}
		if len(g.Delays) != len(g.Inputs) {
			return fmt.Errorf("netlist %s: gate %d (%v) has %d delays for %d pins",
				n.Name, gi, g.Kind, len(g.Delays), len(g.Inputs))
		}
	}
	n.driver = make([]legacyGateID, n.numNets)
	for i := range n.driver {
		n.driver[i] = -1
	}
	for gi := range n.gates {
		out := n.gates[gi].Output
		if out == Const0 || out == Const1 {
			return fmt.Errorf("netlist %s: gate %d drives a constant net", n.Name, gi)
		}
		if n.driver[out] != -1 {
			return fmt.Errorf("netlist %s: net %d has multiple drivers", n.Name, out)
		}
		n.driver[out] = legacyGateID(gi)
	}
	isInput := make([]bool, n.numNets)
	isInput[Const0], isInput[Const1] = true, true
	for _, in := range n.inputs {
		if n.driver[in] != -1 {
			return fmt.Errorf("netlist %s: primary input net %d is gate-driven", n.Name, in)
		}
		isInput[in] = true
	}
	n.fanout = make([][]legacyGateID, n.numNets)
	for gi := range n.gates {
		for _, in := range n.gates[gi].Inputs {
			if n.driver[in] == -1 && !isInput[in] {
				return fmt.Errorf("netlist %s: gate %d reads undriven net %d", n.Name, gi, in)
			}
			n.fanout[in] = append(n.fanout[in], legacyGateID(gi))
		}
	}
	for _, out := range n.outputs {
		if n.driver[out] == -1 && !isInput[out] {
			return fmt.Errorf("netlist %s: primary output net %d undriven", n.Name, out)
		}
	}

	isOutput := make([]bool, n.numNets)
	for _, out := range n.outputs {
		isOutput[out] = true
	}
	for _, in := range n.inputs {
		if len(n.fanout[in]) == 0 && !isOutput[in] && !n.discarded[in] {
			return fmt.Errorf("netlist %s: primary input net %d is floating: no gate reads it and it is not a primary output; remove it or mark it with Discard",
				n.Name, in)
		}
	}
	for gi := range n.gates {
		g := &n.gates[gi]
		if len(n.fanout[g.Output]) == 0 && !isOutput[g.Output] && !n.discarded[g.Output] {
			return fmt.Errorf("netlist %s: gate %d (%v, unit %q) drives net %d which has zero fanout and is not a primary output; dead logic — remove the gate or mark its output with Discard",
				n.Name, gi, g.Kind, g.Unit, g.Output)
		}
	}

	// Kahn topological sort over gates.
	pending := make([]int32, len(n.gates))
	ready := make([]legacyGateID, 0, len(n.gates))
	for gi := range n.gates {
		cnt := int32(0)
		for _, in := range n.gates[gi].Inputs {
			if n.driver[in] != -1 {
				cnt++
			}
		}
		pending[gi] = cnt
		if cnt == 0 {
			ready = append(ready, legacyGateID(gi))
		}
	}
	n.topo = make([]legacyGateID, 0, len(n.gates))
	n.level = make([]int32, len(n.gates))
	for len(ready) > 0 {
		g := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		n.topo = append(n.topo, g)
		for _, fo := range n.fanout[n.gates[g].Output] {
			if lvl := n.level[g] + 1; lvl > n.level[fo] {
				n.level[fo] = lvl
			}
			pending[fo]--
			if pending[fo] == 0 {
				ready = append(ready, fo)
			}
		}
	}
	if len(n.topo) != len(n.gates) {
		return fmt.Errorf("netlist %s: combinational cycle (%d of %d gates ordered)",
			n.Name, len(n.topo), len(n.gates))
	}
	n.reorderTopological()
	return nil
}

func (n *legacyNetlist) reorderTopological() {
	perm := make([]legacyGateID, len(n.gates)) // old id -> new id
	newGates := make([]legacyGate, len(n.gates))
	for newID, oldID := range n.topo {
		perm[oldID] = legacyGateID(newID)
		newGates[newID] = n.gates[oldID]
	}
	newLevel := make([]int32, len(n.gates))
	for oldID, lvl := range n.level {
		newLevel[perm[oldID]] = lvl
	}
	n.gates = newGates
	n.level = newLevel
	for net, d := range n.driver {
		if d != -1 {
			n.driver[net] = perm[d]
		}
	}
	for net, fo := range n.fanout {
		for i, g := range fo {
			fo[i] = perm[g]
		}
		n.fanout[net] = fo
	}
	for i := range n.topo {
		n.topo[i] = legacyGateID(i)
	}
}

func (n *legacyNetlist) TotalEnergy() float64 {
	var sum float64
	for i := range n.gates {
		sum += n.gates[i].Energy
	}
	return sum
}

func (n *legacyNetlist) Vary(sigma float64, seed uint64) *legacyNetlist {
	if sigma < 0 {
		panic("netlist: negative variation sigma")
	}
	src := prng.New(seed)
	out := *n // shallow copy shares driver/fanout/topo/level
	out.gates = make([]legacyGate, len(n.gates))
	copy(out.gates, n.gates)
	for gi := range out.gates {
		factor := math.Exp(src.NormFloat64() * sigma)
		delays := make([]cell.PinDelay, len(out.gates[gi].Delays))
		for pin, d := range out.gates[gi].Delays {
			delays[pin] = cell.PinDelay{Rise: d.Rise * factor, Fall: d.Fall * factor}
		}
		out.gates[gi].Delays = delays
	}
	return &out
}

func (n *legacyNetlist) compile() *legacyCompiled {
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
	c := &legacyCompiled{
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
		c.Out[gi] = int32(g.Output)
		c.Energy[gi] = g.Energy
		c.Unit[gi] = g.Unit
	}
	for net, d := range n.driver {
		c.Driver[net] = int32(d)
	}
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

// legacyFromBuild converts a netlist's creation-order build arrays (the
// state Build finalizes) into the legacy builder's gate list: the same
// gates, pins, annotated delays and unit tags the legacy place appended.
func legacyFromBuild(n *Netlist) *legacyNetlist {
	l := &legacyNetlist{
		Name:      n.Name,
		Lib:       n.Lib,
		numNets:   n.numNets,
		inputs:    append([]NetID(nil), n.inputs...),
		outputs:   append([]NetID(nil), n.outputs...),
		discarded: make(map[NetID]bool, len(n.discarded)),
	}
	for net := range n.discarded {
		l.discarded[net] = true
	}
	for gi := range n.op {
		lo, hi := n.pinOff[gi], n.pinOff[gi+1]
		delays := make([]cell.PinDelay, hi-lo)
		for pin := range delays {
			delays[pin] = cell.PinDelay{Rise: n.rise[int(lo)+pin], Fall: n.fall[int(lo)+pin]}
		}
		l.gates = append(l.gates, legacyGate{
			Kind:   n.kind[gi],
			Inputs: append([]NetID(nil), n.pins[lo:hi]...),
			Output: n.out[gi],
			Op:     n.op[gi],
			Delays: delays,
			Energy: n.energy[gi],
			Unit:   n.units[n.unit[gi]],
		})
	}
	return l
}

// LegacyPair is one netlist built through Build and the legacy lowering
// of the same creation-order arrays.
type LegacyPair struct {
	n   *Netlist
	old *legacyNetlist
	err error // the legacy finalize's error, if any
}

// CaptureLegacy records a LegacyPair for every netlist built until the
// returned function is called; that call stops the capture and returns
// the pairs in build order.
func CaptureLegacy() func() []LegacyPair {
	var mu sync.Mutex
	var pairs []LegacyPair
	buildHook = func(n *Netlist) {
		old := legacyFromBuild(n)
		err := old.finalize()
		mu.Lock()
		pairs = append(pairs, LegacyPair{n: n, old: old, err: err})
		mu.Unlock()
	}
	return func() []LegacyPair {
		buildHook = nil
		mu.Lock()
		defer mu.Unlock()
		return pairs
	}
}

// Check compares the pair: both finalized or neither; then every
// Compiled field, Stats, TotalEnergy and the Vary die of every given
// seed.
func (p LegacyPair) Check(t testing.TB, varySeeds ...uint64) {
	t.Helper()
	if p.n.c == nil || p.err != nil {
		if (p.n.c == nil) != (p.err != nil) {
			t.Fatalf("%s: Build finalized %v, legacy error %v", p.n.Name, p.n.c != nil, p.err)
		}
		return
	}
	checkLegacy(t, p.n, p.old)
	for _, seed := range varySeeds {
		checkLegacy(t, p.n.Vary(0.05, seed), p.old.Vary(0.05, seed))
	}
}

// checkLegacy requires n's Compiled form, Stats and TotalEnergy to equal
// the legacy pipeline's, floats by their bits.
func checkLegacy(t testing.TB, n *Netlist, old *legacyNetlist) {
	t.Helper()
	c, want := n.Compiled(), old.compile()
	fail := func(field string) {
		t.Helper()
		t.Fatalf("%s: Compiled.%s differs from the legacy lowering", c.Name, field)
	}
	if c.Name != want.Name {
		fail("Name")
	}
	if c.NumNets != want.NumNets || c.NumGates != want.NumGates {
		fail("NumNets/NumGates")
	}
	if !reflect.DeepEqual(c.Inputs, want.Inputs) || !reflect.DeepEqual(c.Outputs, want.Outputs) {
		fail("Inputs/Outputs")
	}
	if c.MaxFanIn != want.MaxFanIn || c.Stride != want.Stride {
		fail("MaxFanIn/Stride")
	}
	if !reflect.DeepEqual(c.Op, want.Op) {
		fail("Op")
	}
	if !reflect.DeepEqual(c.NumIn, want.NumIn) {
		fail("NumIn")
	}
	if !reflect.DeepEqual(c.In, want.In) {
		fail("In")
	}
	if !sameBits(c.Rise, want.Rise) {
		fail("Rise")
	}
	if !sameBits(c.Fall, want.Fall) {
		fail("Fall")
	}
	if !reflect.DeepEqual(c.Out, want.Out) {
		fail("Out")
	}
	if !sameBits(c.Energy, want.Energy) {
		fail("Energy")
	}
	if len(c.Unit) != len(want.Unit) {
		fail("Unit")
	}
	for gi := range c.Unit {
		if c.UnitName(int32(gi)) != want.Unit[gi] {
			fail("Unit")
		}
	}
	if !reflect.DeepEqual(c.Driver, want.Driver) {
		fail("Driver")
	}
	if !reflect.DeepEqual(c.FanOff, want.FanOff) || !reflect.DeepEqual(c.FanGate, want.FanGate) {
		fail("FanOff/FanGate")
	}
	if !reflect.DeepEqual(c.FanPin, want.FanPin) {
		fail("FanPin")
	}
	if c.NumLevels != want.NumLevels || !reflect.DeepEqual(c.LevelOff, want.LevelOff) ||
		!reflect.DeepEqual(c.Levels, want.Levels) {
		fail("NumLevels/LevelOff/Levels")
	}
	if got, w := n.Stats(), old.Stats(); !reflect.DeepEqual(got, w) {
		t.Fatalf("%s: Stats %+v, legacy %+v", c.Name, got, w)
	}
	if got, w := n.TotalEnergy(), old.TotalEnergy(); math.Float64bits(got) != math.Float64bits(w) {
		t.Fatalf("%s: TotalEnergy %v, legacy %v", c.Name, got, w)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// dagBuilder is the builder surface the random-DAG script drives; both
// Builder and legacyBuilder implement it.
type dagBuilder interface {
	SetUnit(string)
	InputNet() NetID
	Output(Bus)
	Discard(...NetID)
	gate(cell.Kind, ...NetID) NetID
	HalfAdd(x, y NetID) (NetID, NetID)
	FullAdd(x, y, cin NetID) (NetID, NetID)
	Detour(a NetID, ps float64) NetID
}

// randomDAG drives b through a random build script: single cells of
// every kind, adder cells, detours, repeated unit tags, constant and
// duplicate pins, and outputs that tap inputs. Every net is declared
// discardable so no dead end is rejected.
func randomDAG(b dagBuilder, lib *cell.Library, seed uint64) {
	src := prng.New(seed)
	var nets []NetID
	for i := 0; i < 3+int(src.Uint64()%8); i++ {
		nets = append(nets, b.InputNet())
	}
	pick := func() NetID {
		switch src.Uint64() % 16 {
		case 0:
			return Const0
		case 1:
			return Const1
		}
		// Bias towards recent nets so the DAG grows deep as well as wide.
		span := min(len(nets), 1+int(src.Uint64()%24))
		return nets[len(nets)-1-int(src.Uint64()%uint64(span))]
	}
	units := []string{"", "alpha", "beta", "gamma/delta"}
	steps := 20 + int(src.Uint64()%200)
	for i := 0; i < steps; i++ {
		if src.Uint64()%8 == 0 {
			b.SetUnit(units[src.Uint64()%uint64(len(units))])
		}
		switch r := src.Uint64() % 10; {
		case r == 0:
			s, c := b.HalfAdd(pick(), pick())
			nets = append(nets, s, c)
		case r == 1:
			s, c := b.FullAdd(pick(), pick(), pick())
			nets = append(nets, s, c)
		case r == 2:
			nets = append(nets, b.Detour(pick(), float64(src.Uint64()%300)))
		default:
			k := cell.Kind(src.Uint64() % uint64(cell.HA)) // the single-output cells
			in := make([]NetID, lib.Cell(k).Inputs)
			for j := range in {
				in[j] = pick()
			}
			nets = append(nets, b.gate(k, in...))
		}
	}
	var outs Bus
	for _, net := range nets {
		if src.Uint64()%4 == 0 {
			outs = append(outs, net)
		}
	}
	b.Output(append(outs, nets[len(nets)-1]))
	b.Discard(nets...)
}

func TestCompiledMatchesLegacyRandomDAGs(t *testing.T) {
	lib := cell.Default()
	for seed := uint64(1); seed <= 200; seed++ {
		b := NewBuilder(fmt.Sprintf("dag%d", seed), lib, seed)
		lb := newLegacyBuilder(fmt.Sprintf("dag%d", seed), lib, seed)
		randomDAG(b, lib, seed)
		randomDAG(lb, lib, seed)
		n, err := b.Build()
		old, oldErr := lb.Build()
		if err != nil || oldErr != nil {
			t.Fatalf("seed %d: Build %v, legacy %v", seed, err, oldErr)
		}
		checkLegacy(t, n, old)
		for _, die := range []uint64{seed, seed ^ 0x5eed} {
			checkLegacy(t, n.Vary(0.04, die), old.Vary(0.04, die))
		}
	}
}
