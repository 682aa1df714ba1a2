package fpu

import (
	"testing"
	"testing/quick"

	"teva/internal/softfp"
)

// quickConfig bounds the property-test effort: each Exec simulates tens
// of thousands of gates.
var quickConfig = &quick.Config{MaxCount: 300}

// checkOp verifies the gate-level pipeline against the softfp golden
// model for one generated operand pair (NaN payloads normalized).
func checkOp(op Op) func(a, b uint64) bool {
	p := testFPU.Pipeline(op)
	f := op.Format()
	mask := ^uint64(0)
	if w := op.OperandWidth(); w < 64 {
		mask = 1<<uint(w) - 1
	}
	return func(a, b uint64) bool {
		a &= mask
		b &= mask
		got, _ := p.Exec(a, b)
		want := op.Golden(a, b)
		if op.kind() != kindF2I && f.IsNaNBits(got) && f.IsNaNBits(want) {
			return true
		}
		return got == want
	}
}

func TestQuickAddMatchesGolden(t *testing.T) {
	if err := quick.Check(checkOp(DAdd), quickConfig); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubMatchesGolden(t *testing.T) {
	if err := quick.Check(checkOp(DSub), quickConfig); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulMatchesGolden(t *testing.T) {
	if err := quick.Check(checkOp(DMul), quickConfig); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSingleOpsMatchGolden(t *testing.T) {
	for _, op := range []Op{SAdd, SMul, SF2I, SI2F} {
		if err := quick.Check(checkOp(op), &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
}

func TestSchemaContinuity(t *testing.T) {
	// Every stage's input register rank must carry exactly the previous
	// stage's outputs, and iterated stages must be schema-stable.
	for _, op := range Ops() {
		p := testFPU.Pipeline(op)
		for i := 1; i < len(p.Stages); i++ {
			prev, cur := p.Stages[i-1], p.Stages[i]
			if !prev.out.equal(cur.in) {
				t.Fatalf("%s: schema break between %s and %s", op, prev.Name, cur.Name)
			}
		}
		for _, s := range p.Stages {
			if s.Repeat > 1 && !s.in.equal(s.out) {
				t.Fatalf("%s: iterated stage %s changes schema", op, s.Name)
			}
			if len(s.N.Inputs()) != s.in.total || len(s.N.Outputs()) != s.out.total {
				t.Fatalf("%s/%s: netlist port counts disagree with schema", op, s.Name)
			}
		}
	}
}

func TestExecRankCount(t *testing.T) {
	for _, op := range []Op{DAdd, DMul, DDiv, SF2I} {
		p := testFPU.Pipeline(op)
		_, ranks := p.Exec(0, 0)
		if len(ranks) != p.Latency()+1 {
			t.Fatalf("%s: %d ranks for latency %d", op, len(ranks), p.Latency())
		}
		if got := p.Result(ranks[len(ranks)-1]); got != op.Golden(0, 0) {
			t.Fatalf("%s: Result() disagrees with Exec()", op)
		}
	}
}

func TestStageUnitsTagged(t *testing.T) {
	for _, op := range Ops() {
		p := testFPU.Pipeline(op)
		for _, s := range p.Stages {
			c := s.N.Compiled()
			for gi := int32(0); gi < int32(c.NumGates); gi++ {
				if c.UnitName(gi) == "" {
					t.Fatalf("%s/%s: untagged gate", op, s.Name)
				}
			}
		}
	}
}

func TestGoldenMatchesSoftfpDirectly(t *testing.T) {
	// Op.Golden must be exactly the softfp reference (no drift between
	// the CPU's arithmetic and the circuit's golden model).
	f := softfp.Binary64
	a, b := uint64(0x400921FB54442D18), uint64(0x4005BF0A8B145769) // pi, e
	want, _ := f.Mul(a, b)
	if DMul.Golden(a, b) != want {
		t.Fatal("Golden diverges from softfp")
	}
}
