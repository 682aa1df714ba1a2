package dta

import (
	"math"

	"teva/internal/fpu"
	"teva/internal/netlist"
)

// Slack-pruned DTA.
//
// At delay scale s a stage's endpoint is late only when its dynamic
// arrival exceeds CLK - Setup*s, and a dynamic arrival along a path
// never exceeds s times that path's nominal static delay
// (TestStaticBoundsDynamic). So a gate whose longest register-to-register
// path, clock-to-Q and setup included, still fits the clock after
// scaling,
//
//	s * PathDelay(gate output) <= CLK * (1 - pruneMargin),
//
// can never make an endpoint late, and the wide engine does no arrival
// work for it (timingsim.WideFastSim.Prune). A late endpoint's critical
// path is then fully tracked and timed exactly, so Golden, Faulty, Mask
// and the pipeline history are those of the unpruned engine. The margin
// keeps rounding between the static sum and the engine's summed scaled
// delays from flipping a decision.

// pruneMargin is the relative clock margin of the tracked-gate rule.
const pruneMargin = 1e-9

// Detail selects which Record fields an analysis computes.
type Detail uint8

const (
	// Outcome computes A, B, Golden, Faulty and Mask. The wide engine
	// prunes its arrival work to gates that can be late, so MaxArrivalPS
	// is exact only for a late instruction (a lower bound otherwise) and
	// EnergyFJ is 0. The scalar engines compute every field regardless.
	Outcome Detail = iota
	// Full also computes the exact MaxArrivalPS and EnergyFJ, with no
	// pruning.
	Full
)

// timingKey memoizes an op's nominal static timing in the FPU's scratch.
// The key type is unexported, so no other package can collide.
type timingKey struct{ op fpu.Op }

// opTiming is the compact result of one nominal STA pass over an op's
// pipeline: per stage, the worst delay (the screen's input) and every
// gate's PathDelay at its output net (the tracked sets' input), rounded
// up to float32. Rounding up only ever tracks more gates, which costs
// work but never exactness.
type opTiming struct {
	worsts []float64
	paths  [][]float32
}

// nominalTiming returns the op's nominal static timing, running STA once
// per FPU (concurrent first calls may duplicate the analysis; the result
// is deterministic, so either copy is valid).
func nominalTiming(f *fpu.FPU, op fpu.Op) *opTiming {
	if v, ok := f.Scratch().Load(timingKey{op}); ok {
		return v.(*opTiming)
	}
	p := f.Pipeline(op)
	reports := p.STA()
	t := &opTiming{worsts: make([]float64, len(reports)), paths: make([][]float32, len(reports))}
	for i, r := range reports {
		t.worsts[i] = r.WorstDelay
		c := p.Stages[i].N.Compiled()
		paths := make([]float32, c.NumGates)
		for gi, out := range c.Out[:c.NumGates] {
			d := r.PathDelay(netlist.NetID(out))
			p32 := float32(d)
			if float64(p32) < d {
				p32 = math.Nextafter32(p32, float32(math.Inf(1)))
			}
			paths[gi] = p32
		}
		t.paths[i] = paths
	}
	v, _ := f.Scratch().LoadOrStore(timingKey{op}, t)
	return v.(*opTiming)
}

// trackKey memoizes an op's tracked-gate sets at one delay scale.
type trackKey struct {
	op    fpu.Op
	scale float64
}

// TrackedGates returns, per pipeline stage of the op, the gates the
// pruned wide engine times at delay scale scale: one bit per gate (gate
// gi is bit gi%64 of word gi/64), set when a path through the gate's
// output can miss the clock. The sets derive from the op's one cached
// nominal STA pass and are cached per (FPU, op, scale); callers must not
// modify them.
func TrackedGates(f *fpu.FPU, op fpu.Op, scale float64) [][]uint64 {
	key := trackKey{op, scale}
	if v, ok := f.Scratch().Load(key); ok {
		return v.([][]uint64)
	}
	limit := f.CLK * (1 - pruneMargin)
	paths := nominalTiming(f, op).paths
	sets := make([][]uint64, len(paths))
	for i, ps := range paths {
		set := make([]uint64, (len(ps)+63)/64)
		for gi, d := range ps {
			if scale*float64(d) > limit {
				set[gi>>6] |= 1 << uint(gi&63)
			}
		}
		sets[i] = set
	}
	v, _ := f.Scratch().LoadOrStore(key, sets)
	return v.([][]uint64)
}
