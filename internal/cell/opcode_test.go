package cell

import "testing"

func TestOpcodeSliceMatchesScalar(t *testing.T) {
	// The slice reference must agree with the scalar function over the
	// full truth table.
	for op := OpCode(1); op < NumOpCodes; op++ {
		n := op.Arity()
		for _, in := range allInputs(n) {
			var a, b, c bool
			switch n {
			case 3:
				c = in[2]
				fallthrough
			case 2:
				b = in[1]
				fallthrough
			case 1:
				a = in[0]
			}
			if got := op.EvalSlice(in); got != op.Eval(a, b, c) {
				t.Fatalf("%v%v: EvalSlice disagrees with Eval", op, in)
			}
		}
	}
}

func TestOpcodeArityMatchesCells(t *testing.T) {
	lib := Default()
	for k := Kind(0); k < numKinds; k++ {
		if k == DFF {
			continue
		}
		c := lib.Cell(k)
		if c.Op.Arity() != c.Inputs {
			t.Fatalf("%v: opcode %v arity %d, cell has %d inputs", k, c.Op, c.Op.Arity(), c.Inputs)
		}
		if carry := CarryOp(k); carry != OpNone && carry.Arity() != c.Inputs {
			t.Fatalf("%v: carry opcode %v arity mismatch", k, carry)
		}
	}
	if lib.MaxFanIn() != 3 {
		t.Fatalf("default library MaxFanIn = %d, want 3", lib.MaxFanIn())
	}
}

func TestOpcodeString(t *testing.T) {
	if OpXor3.String() != "XOR3" || OpNone.String() != "NONE" {
		t.Fatal("opcode names wrong")
	}
	if OpCode(200).String() == "" {
		t.Fatal("unknown opcode should still format")
	}
}
