package fpu

import (
	"fmt"

	"teva/internal/cell"
	"teva/internal/logicsim"
	"teva/internal/netlist"
	"teva/internal/sta"
)

type libT = *cell.Library

// Stage is one pipeline rank: a combinational netlist between two register
// boundaries, possibly iterated (the divider's recurrence stage).
type Stage struct {
	// Name labels the stage ("s4-cpa").
	Name string
	// N is the stage's combinational netlist.
	N *netlist.Netlist
	// Repeat is how many consecutive cycles the stage executes (1 for
	// ordinary stages, mantissa-width+4 for the divide recurrence).
	Repeat int
	// in and out are the register schemas on either side.
	in, out *schema
}

// Latency returns the number of cycles the stage occupies.
func (s *Stage) Latency() int { return s.Repeat }

// Pipeline is the gate-level implementation of one FPU instruction.
type Pipeline struct {
	// Op is the implemented instruction.
	Op Op
	// Stages in execution order.
	Stages []*Stage
	lib    libT
	// delays are the stages' nominal STA worst delays, measured by New
	// while it calibrated the design; nil on a Vary'd die.
	delays []float64
}

// Latency returns the pipeline's total cycle count.
func (p *Pipeline) Latency() int {
	var n int
	for _, s := range p.Stages {
		n += s.Repeat
	}
	return n
}

// NumGates returns the total gate count across stages (iterated stages
// counted once, as in hardware).
func (p *Pipeline) NumGates() int {
	var n int
	for _, s := range p.Stages {
		n += s.N.NumGates()
	}
	return n
}

// stageSpec describes a stage to the compiler.
type stageSpec struct {
	name   string
	repeat int
	build  func(c *sb)
}

// compile builds the pipeline's stage netlists, checking schema continuity
// between consecutive stages.
func compile(op Op, lib libT, seed uint64, in *schema, specs []stageSpec) (*Pipeline, error) {
	p := &Pipeline{Op: op, lib: lib}
	cur := in
	for i, spec := range specs {
		s, err := compileStage(op, lib, seed, i, cur, spec)
		if err != nil {
			return nil, err
		}
		p.Stages = append(p.Stages, s)
		cur = s.out
	}
	last := p.Stages[len(p.Stages)-1]
	if got, want := last.out.total, op.ResultWidth(); got != want {
		return nil, fmt.Errorf("fpu: %s: final stage emits %d bits, want %d", op, got, want)
	}
	return p, nil
}

// compileStage builds stage i of the op's pipeline from the register
// schema in, checking that an iterated stage preserves its schema. The
// netlist depends only on (lib, seed, i, in, spec): that is what lets
// calibration rebuild one stage and keep the others.
func compileStage(op Op, lib libT, seed uint64, i int, in *schema, spec stageSpec) (*Stage, error) {
	name := fmt.Sprintf("fpu/%s/%s", op, spec.name)
	c := newStageBuilder(name, lib, seed+uint64(i)*0x9e37, in)
	c.SetUnit(name)
	spec.build(c)
	n, out, err := c.finish()
	if err != nil {
		return nil, fmt.Errorf("fpu: %s: %w", name, err)
	}
	repeat := spec.repeat
	if repeat == 0 {
		repeat = 1
	}
	if repeat > 1 && !out.equal(in) {
		return nil, fmt.Errorf("fpu: %s: iterated stage changes schema", name)
	}
	return &Stage{Name: spec.name, N: n, Repeat: repeat, in: in, out: out}, nil
}

// Exec runs the pipeline functionally (zero delay) and returns the result
// encoding along with every register rank's values, in order: rank 0 is
// the pipeline's input vector, rank i the output of the i-th executed
// cycle. The ranks are what the dynamic timing analysis replays with
// delays. Operands are raw encodings in the low bits.
func (p *Pipeline) Exec(a, b uint64) (uint64, [][]bool) {
	in := p.packInputs(a, b)
	ranks := [][]bool{in}
	cur := in
	for _, s := range p.Stages {
		sim := logicsim.New(s.N.Compiled())
		for r := 0; r < s.Repeat; r++ {
			sim.Run(cur)
			cur = sim.Outputs(nil)
			ranks = append(ranks, cur)
		}
	}
	return unpackBits(cur, p.Op.ResultWidth()), ranks
}

// ExecBatch runs up to 64 operand pairs through the pipeline on the
// 64-wide bit-parallel engine — one circuit walk per stage-cycle
// evaluates every pair — and returns the result encodings in input
// order. Results are bit-identical to per-pair Exec calls.
func (p *Pipeline) ExecBatch(a, b []uint64) []uint64 {
	if len(a) != len(b) {
		panic("fpu: ExecBatch operand count mismatch")
	}
	if len(a) > 64 {
		panic("fpu: ExecBatch limited to 64 pairs")
	}
	w := p.Op.OperandWidth()
	words := make([]uint64, p.Stages[0].in.total)
	for lane := range a {
		logicsim.PackLaneBits(words, lane, 0, w, a[lane])
		if p.Op.NumOperands() == 2 {
			logicsim.PackLaneBits(words, lane, w, w, b[lane])
		}
	}
	for _, s := range p.Stages {
		sim := logicsim.NewWide(s.N.Compiled())
		for r := 0; r < s.Repeat; r++ {
			sim.Run(words)
			words = sim.Outputs(nil)
		}
	}
	rw := p.Op.ResultWidth()
	res := make([]uint64, len(a))
	for lane := range res {
		res[lane] = logicsim.UnpackLaneBits(words, lane, 0, rw)
	}
	return res
}

// Result extracts the result encoding from the final register rank.
func (p *Pipeline) Result(finalRank []bool) uint64 {
	return unpackBits(finalRank, p.Op.ResultWidth())
}

// packInputs builds the rank-0 vector for the operands.
func (p *Pipeline) packInputs(a, b uint64) []bool {
	in := make([]bool, p.Stages[0].in.total)
	w := p.Op.OperandWidth()
	logicsim.PackInputs(in, 0, w, a)
	if p.Op.NumOperands() == 2 {
		logicsim.PackInputs(in, w, w, b)
	}
	return in
}

func unpackBits(values []bool, width int) uint64 {
	return logicsim.UnpackOutputs(values, 0, width)
}

// STA analyzes every stage and returns the reports in stage order.
func (p *Pipeline) STA() []*sta.Report {
	reports := make([]*sta.Report, len(p.Stages))
	for i, s := range p.Stages {
		reports[i] = s.sta(p.lib)
	}
	return reports
}

// sta analyzes the stage at the nominal corner.
func (s *Stage) sta(lib libT) *sta.Report {
	return sta.Analyze(s.N.Compiled(), lib.ClockToQ, lib.Setup)
}

// STACorner is STA with every stage re-derated at an operating corner
// (the netlists are not rebuilt; see sta.AnalyzeCorner).
func (p *Pipeline) STACorner(corner cell.Corner) []*sta.Report {
	reports := make([]*sta.Report, len(p.Stages))
	for i, s := range p.Stages {
		reports[i] = sta.AnalyzeCorner(s.N.Compiled(), p.lib.ClockToQ, p.lib.Setup, corner)
	}
	return reports
}

// StageDelays returns every stage's nominal STA worst delay, in stage
// order: the delays New measured, or one STA per stage on a pipeline
// without them (a Vary'd die). Callers must not modify the slice.
func (p *Pipeline) StageDelays() []float64 {
	if p.delays != nil {
		return p.delays
	}
	delays := make([]float64, len(p.Stages))
	for i, r := range p.STA() {
		delays[i] = r.WorstDelay
	}
	return delays
}

// WorstStageDelay returns the slowest stage's STA delay and its index.
func (p *Pipeline) WorstStageDelay() (float64, int) {
	var worst float64
	idx := 0
	for i, d := range p.StageDelays() {
		if d > worst {
			worst = d
			idx = i
		}
	}
	return worst, idx
}
