package errmodel

import (
	"teva/internal/cpu"
	"teva/internal/fpu"
	"teva/internal/prng"
)

// ExecProfile summarizes a golden execution for single-injection
// targeting: how many dynamic instructions ran in total and per FPU op.
type ExecProfile struct {
	FPOps      [fpu.NumOps]int64
	TotalInstr int64
}

// Single is an injector that corrupts at most one writeback, at a target
// fixed when it is drawn. Because the target is known up front, a
// campaign can start the run from a checkpoint of the golden execution
// instead of from reset, and stop it early once the injector can no
// longer fire. The counters passed in are those of a cpu.Recording
// checkpoint or of the run itself, taken between instructions.
type Single interface {
	cpu.Injector
	// Ahead reports whether the target lies beyond a golden prefix that
	// ends at the counters at: the injector stays silent over it.
	Ahead(at cpu.Result) bool
	// Skip advances the injector over a golden prefix for which Ahead
	// holds, as if it had observed every writeback in it.
	Skip(at cpu.Result)
	// Exhausted reports whether the injector stays silent for the rest
	// of a run now at the counters at: it has fired, or the run has
	// retired its target without firing.
	Exhausted(at cpu.Result) bool
}

// SingleInjector returns an injector that corrupts exactly one dynamic
// instruction of the run — the paper's statistical-fault-injection
// discipline ("for every program execution, we apply the bitmasks in a
// random clock cycle"), with the target drawn from the model's injection
// distribution over the golden execution profile:
//
//   - DA-model: a uniformly random dynamic instruction, one random
//     destination bit;
//   - IA/WA-models: an instruction type drawn with probability
//     proportional to (dynamic count x type error ratio), a uniform
//     dynamic instance of that type, and a bitmask from the model's
//     distribution.
//
// It returns nil when the model cannot inject into this profile at all
// (every rate is zero): the paper's "this voltage level produces no
// errors for this application" case.
func SingleInjector(m Model, prof ExecProfile, src *prng.Source) Single {
	switch model := m.(type) {
	case *DAModel:
		if model.ER == 0 || prof.TotalInstr == 0 {
			return nil
		}
		return &singleDA{target: int64(src.Uint64n(uint64(prof.TotalInstr))) + 1, src: src}
	case *IAModel:
		op, idx, ok := pickTarget(src, prof, func(op fpu.Op) float64 { return model.PerOp[op].ER })
		if !ok {
			return nil
		}
		return &singleOp{op: op, target: idx, sample: func(s *prng.Source) uint64 {
			return model.sampleMask(op, s)
		}, src: src}
	case *WAModel:
		op, idx, ok := pickTarget(src, prof, func(op fpu.Op) float64 {
			if len(model.PerOp[op].Masks) == 0 {
				return 0
			}
			return model.PerOp[op].ER
		})
		if !ok {
			return nil
		}
		return &singleOp{op: op, target: idx, sample: func(s *prng.Source) uint64 {
			masks := model.PerOp[op].Masks
			return masks[s.Intn(len(masks))]
		}, src: src}
	}
	return nil
}

// pickTarget draws (op, dynamic index) weighted by count x rate.
func pickTarget(src *prng.Source, prof ExecProfile, rate func(fpu.Op) float64) (fpu.Op, int64, bool) {
	var weights [fpu.NumOps]float64
	var total float64
	for op := range weights {
		w := float64(prof.FPOps[op]) * rate(fpu.Op(op))
		weights[op] = w
		total += w
	}
	if total <= 0 {
		return 0, 0, false
	}
	x := src.Float64() * total
	for op, w := range weights {
		x -= w
		if x < 0 {
			idx := int64(src.Uint64n(uint64(prof.FPOps[op]))) + 1
			return fpu.Op(op), idx, true
		}
	}
	// Floating-point edge: fall back to the last weighted op.
	for op := fpu.NumOps - 1; ; op-- {
		if weights[op] > 0 {
			return op, int64(src.Uint64n(uint64(prof.FPOps[op]))) + 1, true
		}
	}
}

// sampleMask draws a bitmask from the IA model's conditional per-bit
// probabilities (non-zero by construction).
func (m *IAModel) sampleMask(op fpu.Op, src *prng.Source) uint64 {
	st := &m.PerOp[op]
	for attempt := 0; attempt < 8; attempt++ {
		var mask uint64
		for i, p := range st.BitProb {
			if p > 0 && src.Float64() < p {
				mask |= 1 << uint(i)
			}
		}
		if mask != 0 {
			return mask
		}
	}
	best, bestP := 0, 0.0
	for i, p := range st.BitProb {
		if p > bestP {
			best, bestP = i, p
		}
	}
	return 1 << uint(best)
}

// singleDA corrupts one random bit of the target dynamic instruction's
// destination (any instruction class).
type singleDA struct {
	target int64
	src    *prng.Source
	fired  bool
}

func (d *singleDA) OnWriteback(ev cpu.Event) uint64 {
	if d.fired || ev.Seq != d.target {
		return 0
	}
	d.fired = true
	return 1 << uint(d.src.Intn(ev.Width))
}

func (d *singleDA) Ahead(at cpu.Result) bool { return at.Instret < d.target }

// Skip has nothing to advance: the target is an absolute instruction
// index.
func (d *singleDA) Skip(cpu.Result) {}

func (d *singleDA) Exhausted(at cpu.Result) bool { return d.fired || at.Instret >= d.target }

// singleOp corrupts the target-th dynamic instance of one FPU op.
type singleOp struct {
	op     fpu.Op
	target int64
	sample func(*prng.Source) uint64
	src    *prng.Source
	seen   int64
	fired  bool
}

func (d *singleOp) OnWriteback(ev cpu.Event) uint64 {
	if d.fired || !ev.FPUDatapath || ev.FPOp != d.op {
		return 0
	}
	d.seen++
	if d.seen != d.target {
		return 0
	}
	d.fired = true
	return d.sample(d.src)
}

func (d *singleOp) Ahead(at cpu.Result) bool { return at.FPOps[d.op] < d.target }

// Skip counts the op's instances in the prefix: the op's writebacks are
// exactly its executed instances.
func (d *singleOp) Skip(at cpu.Result) { d.seen = at.FPOps[d.op] }

// Exhausted is fired alone: seen tracks FPOps[op], so a run cannot retire
// the target instance without firing.
func (d *singleOp) Exhausted(cpu.Result) bool { return d.fired }
