package cell

import "fmt"

// OpCode identifies a combinational logic function. It replaces the old
// per-gate Eval closure: a placed gate carries an opcode, and every
// simulation engine dispatches on it with a branch-predictable switch
// instead of an indirect call. Each opcode has a fixed arity; compound
// cells that drive two outputs (HA, FA) are placed as two gates with
// distinct opcodes (sum and carry functions).
type OpCode uint8

// The opcode set. OpNone is the invalid zero value so an unset opcode
// fails netlist validation loudly.
const (
	OpNone  OpCode = iota
	OpBuf          // a
	OpInv          // !a
	OpAnd2         // a & b
	OpOr2          // a | b
	OpNand2        // !(a & b)
	OpNor2         // !(a | b)
	OpXor2         // a ^ b        (also the HA sum function)
	OpXnor2        // !(a ^ b)
	OpMux2         // c ? b : a    (pins: D0, D1, S)
	OpAoi21        // !((a & b) | c)
	OpOai21        // !((a | b) & c)
	OpAnd3         // a & b & c
	OpOr3          // a | b | c
	OpNand3        // !(a & b & c)
	OpNor3         // !(a | b | c)
	OpXor3         // a ^ b ^ c    (the FA sum function)
	OpMaj3         // majority     (the FA carry function)
	NumOpCodes
)

var opNames = [NumOpCodes]string{
	"NONE", "BUF", "INV", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2",
	"MUX2", "AOI21", "OAI21", "AND3", "OR3", "NAND3", "NOR3", "XOR3", "MAJ3",
}

var opArity = [NumOpCodes]int{
	0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3,
}

func (op OpCode) String() string {
	if op < NumOpCodes {
		return opNames[op]
	}
	return fmt.Sprintf("OpCode(%d)", uint8(op))
}

// Arity returns the number of input pins the function reads. Netlist
// validation requires every gate's pin count to equal its opcode's arity,
// so a new wider cell fails at build time instead of corrupting a
// simulation mid-run.
func (op OpCode) Arity() int { return opArity[op] }

// Eval computes the function on scalar inputs. Unused trailing arguments
// (beyond Arity) are ignored, so callers may always pass three values.
func (op OpCode) Eval(a, b, c bool) bool {
	switch op {
	case OpBuf:
		return a
	case OpInv:
		return !a
	case OpAnd2:
		return a && b
	case OpOr2:
		return a || b
	case OpNand2:
		return !(a && b)
	case OpNor2:
		return !(a || b)
	case OpXor2:
		return a != b
	case OpXnor2:
		return a == b
	case OpMux2:
		if c {
			return b
		}
		return a
	case OpAoi21:
		return !((a && b) || c)
	case OpOai21:
		return !((a || b) && c)
	case OpAnd3:
		return a && b && c
	case OpOr3:
		return a || b || c
	case OpNand3:
		return !(a && b && c)
	case OpNor3:
		return !(a || b || c)
	case OpXor3:
		return a != b != c
	case OpMaj3:
		return (a && b) || (c && (a != b))
	}
	panic(fmt.Sprintf("cell: Eval on %v", op))
}

// EvalSlice is Eval over a pin slice, the reference form used by tests
// and non-hot-path callers.
func (op OpCode) EvalSlice(in []bool) bool {
	var a, b, c bool
	switch len(in) {
	case 1:
		a = in[0]
	case 2:
		a, b = in[0], in[1]
	case 3:
		a, b, c = in[0], in[1], in[2]
	default:
		panic(fmt.Sprintf("cell: EvalSlice %v with %d pins", op, len(in)))
	}
	return op.Eval(a, b, c)
}
