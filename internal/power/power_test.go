package power

import (
	"context"
	"testing"

	"teva/internal/alu"
	"teva/internal/cell"
	"teva/internal/fpu"
	"teva/internal/logicsim"
	"teva/internal/prng"
	"teva/internal/timingsim"
	"teva/internal/trace"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

var (
	testFPU *fpu.FPU
	testALU *alu.Unit
	testPro *Profile
)

func setup(t testing.TB) *Profile {
	t.Helper()
	if testPro != nil {
		return testPro
	}
	lib := cell.Default()
	f, err := fpu.New(lib, 0xF00D)
	if err != nil {
		t.Fatal(err)
	}
	u, err := alu.New(lib, 0xA10)
	if err != nil {
		t.Fatal(err)
	}
	testFPU, testALU = f, u
	testPro, err = Characterize(context.Background(), f, u, 40, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	return testPro
}

func TestPerOpEnergiesPositiveAndOrdered(t *testing.T) {
	p := setup(t)
	for _, op := range fpu.Ops() {
		if p.PerOp[op] <= 0 {
			t.Fatalf("%s energy %v", op, p.PerOp[op])
		}
	}
	// The double multiplier swings the largest datapath; the iterative
	// divider runs the most cycles. Both dwarf a conversion.
	if p.PerOp[fpu.DMul] <= p.PerOp[fpu.DI2F] {
		t.Fatalf("dmul %v should exceed i2f %v", p.PerOp[fpu.DMul], p.PerOp[fpu.DI2F])
	}
	if p.PerOp[fpu.DDiv] <= p.PerOp[fpu.DAdd] {
		t.Fatalf("ddiv %v should exceed dadd %v", p.PerOp[fpu.DDiv], p.PerOp[fpu.DAdd])
	}
	// Double precision costs more than single.
	if p.PerOp[fpu.DMul] <= p.PerOp[fpu.SMul] {
		t.Fatal("dmul should exceed smul")
	}
	// Any FPU op dwarfs an integer op.
	if p.PerOp[fpu.DAdd] <= p.IntOp {
		t.Fatalf("dadd %v should exceed integer op %v", p.PerOp[fpu.DAdd], p.IntOp)
	}
	if p.IntOp <= 0 || p.FPUGates == 0 || p.IntGates == 0 {
		t.Fatalf("profile incomplete: %+v", p)
	}
}

func TestWorkloadBreakdownFPShare(t *testing.T) {
	p := setup(t)
	w, err := workloads.ByName("srad_v1", workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Capture(w, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := p.WorkloadBreakdown(tr)
	if b.TotalFJ <= 0 || b.FPUEnergyFJ <= 0 || b.IntEnergyFJ <= 0 {
		t.Fatalf("breakdown %+v", b)
	}
	// The paper cites FP as a major (>30%) energy contributor for
	// FP-heavy codes; srad is the most FP-intensive benchmark.
	if b.FPUShare < 0.3 {
		t.Fatalf("srad FPU energy share %.2f below 30%%", b.FPUShare)
	}
	if b.FPUShare >= 1 {
		t.Fatalf("FPU share %v must be a fraction", b.FPUShare)
	}
}

func TestAtVoltageQuadratic(t *testing.T) {
	m := vscale.Default45nm()
	e := AtVoltage(100, m, m.VddNominal)
	if e != 100 {
		t.Fatalf("nominal scaling %v", e)
	}
	e = AtVoltage(100, m, 0.88)
	if e <= 50 || e >= 100 {
		t.Fatalf("VR20 energy %v out of band", e)
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	p := setup(t)
	p2, err := Characterize(context.Background(), testFPU, testALU, 40, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for op := range p.PerOp {
		if p.PerOp[op] != p2.PerOp[op] {
			t.Fatal("characterization not reproducible")
		}
	}
}

// TestCharacterizeMatchesStageWalk: the DTA stream's per-record energy
// must reproduce, bit for bit, a direct walk of back-to-back operations
// through every expanded pipeline cycle on the scalar fast engine, each
// stage fed the previous stage's settled outputs, the first operation
// warming the pipeline from its zero state.
func TestCharacterizeMatchesStageWalk(t *testing.T) {
	setup(t)
	for _, samples := range []int{17, 40} {
		p, err := Characterize(context.Background(), testFPU, testALU, samples, 9, 2)
		if err != nil {
			t.Fatal(err)
		}
		src := prng.New(9)
		for _, op := range fpu.Ops() {
			n := samples
			if op == fpu.DDiv || op == fpu.SDiv {
				n = samples/8 + 2
			}
			if want := stageWalkEnergy(testFPU, op, n, src.Split()); p.PerOp[op] != want {
				t.Errorf("samples=%d %s: Characterize %v, stage walk %v", samples, op, p.PerOp[op], want)
			}
		}
	}
}

// stageWalkEnergy is the reference per-op energy: samples back-to-back
// operations driven cycle by cycle through the op's pipeline on one
// FastSim per expanded cycle, averaged over all but the first.
func stageWalkEnergy(f *fpu.FPU, op fpu.Op, samples int, src *prng.Source) float64 {
	pipe := f.Pipeline(op)
	mask := ^uint64(0)
	if w := op.OperandWidth(); w < 64 {
		mask = 1<<uint(w) - 1
	}
	var sims []*timingsim.FastSim
	var prevs [][]bool
	for _, s := range pipe.Stages {
		for r := 0; r < s.Repeat; r++ {
			sims = append(sims, timingsim.NewFast(s.N.Compiled(), 1.0))
			prevs = append(prevs, make([]bool, len(s.N.Inputs())))
		}
	}
	var total float64
	for i := 0; i < samples; i++ {
		a, b := src.Uint64()&mask, src.Uint64()&mask
		in := make([]bool, len(pipe.Stages[0].N.Inputs()))
		w := op.OperandWidth()
		logicsim.PackInputs(in, 0, w, a)
		if op.NumOperands() == 2 {
			logicsim.PackInputs(in, w, w, b)
		}
		var opEnergy float64
		for ci, sim := range sims {
			sample := sim.Run(prevs[ci], in, 0, timingsim.MaxDeadline)
			opEnergy += sample.EnergyFJ
			copy(prevs[ci], in)
			in = append([]bool(nil), sample.Settled...)
		}
		if i > 0 {
			total += opEnergy
		}
	}
	return total / float64(samples-1)
}

// TestIntEnergyMatchesScalarWalk: the integer baseline, measured 64
// samples per wide walk, must equal bit for bit a serial walk of the same
// samples on the scalar levelized engine, for sample counts that end
// inside, on and past a 64-lane batch.
func TestIntEnergyMatchesScalarWalk(t *testing.T) {
	setup(t)
	for _, samples := range []int{2, 40, 64, 65, 130} {
		got := intEnergy(testALU, samples, prng.New(uint64(samples)))
		want := scalarIntEnergy(testALU, samples, prng.New(uint64(samples)))
		if got != want {
			t.Errorf("samples=%d: wide %v, scalar %v", samples, got, want)
		}
	}
}

// scalarIntEnergy is the reference integer energy: one FastSim walk per
// sample through the ALU and the AGU, drawing the same bits in the same
// order as intEnergy, averaged over all but the first sample.
func scalarIntEnergy(u *alu.Unit, samples int, src *prng.Source) float64 {
	aluSim := timingsim.NewFast(u.ALU.Compiled(), 1.0)
	aguSim := timingsim.NewFast(u.AGU.Compiled(), 1.0)
	aluPrev := make([]bool, len(u.ALU.Inputs()))
	aguPrev := make([]bool, len(u.AGU.Inputs()))
	var total float64
	var counted int
	for i := 0; i < samples; i++ {
		aluIn := make([]bool, len(aluPrev))
		for j := 0; j < 64; j++ {
			aluIn[j] = src.Bool()
		}
		aguIn := make([]bool, len(aguPrev))
		for j := range aguIn {
			aguIn[j] = src.Bool()
		}
		e := aluSim.Run(aluPrev, aluIn, 0, timingsim.MaxDeadline).EnergyFJ
		e += aguSim.Run(aguPrev, aguIn, 0, timingsim.MaxDeadline).EnergyFJ
		copy(aluPrev, aluIn)
		copy(aguPrev, aguIn)
		if i > 0 {
			total += e
			counted++
		}
	}
	return total / float64(counted)
}
