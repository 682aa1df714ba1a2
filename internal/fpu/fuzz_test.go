package fpu

import (
	"math"
	"testing"
)

// specialOperands lists the operands the FTZ/exception logic treats
// specially, in the op's source encoding: signed zeros, denormals, the
// smallest and largest normals, infinities and NaNs for the float ops,
// values next to ±2^31 for f2i, and the int32 extremes and rounding
// boundaries for i2f.
func specialOperands(op Op) []uint64 {
	if op.kind() == kindI2F {
		var out []uint64
		for _, x := range []int32{0, 1, -1, math.MaxInt32, math.MinInt32, math.MinInt32 + 1,
			1<<24 + 1, -(1<<24 + 3), 1<<31 - 64, 1<<31 - 65} {
			out = append(out, uint64(uint32(x)))
		}
		return out
	}
	f := op.Format()
	frac := f.FracBits
	fracMask := uint64(1)<<frac - 1
	sign := uint64(1) << (f.ExpBits + frac)
	enc := func(e, fr uint64) uint64 { return e<<frac | fr }
	bias := uint64(1)<<(f.ExpBits-1) - 1
	maxExp := uint64(1)<<f.ExpBits - 1
	out := []uint64{
		0, sign, // ±0
		1, fracMask, sign | 1, sign | fracMask, // denormals
		enc(1, 0), sign | enc(1, 0), // smallest normal
		enc(bias, 0), sign | enc(bias, 1<<(frac-1)), // 1, -1.5
		enc(maxExp-1, fracMask), sign | enc(maxExp-1, fracMask), // largest finite
		f.Inf(0), f.Inf(1), // ±inf
		f.QNaN(), sign | f.QNaN(), enc(maxExp, 1), // NaNs, one with a signalling payload
	}
	if op.kind() == kindF2I {
		p31 := enc(bias+31, 0)
		out = append(out, p31-1, p31, p31+1, sign|(p31-1), sign|p31, sign|(p31+1),
			enc(bias-1, 0), sign|enc(bias-1, 0)) // ±0.5
	}
	return out
}

// TestPipelinesSpecialValues runs every pair of special operands through
// every pipeline, 64 pairs per ExecBatch walk, and requires softfp's
// result bit for bit.
func TestPipelinesSpecialValues(t *testing.T) {
	for _, op := range Ops() {
		sp := specialOperands(op)
		var as, bs []uint64
		for _, a := range sp {
			if op.NumOperands() == 1 {
				as, bs = append(as, a), append(bs, 0)
				continue
			}
			for _, b := range sp {
				as, bs = append(as, a), append(bs, b)
			}
		}
		p := testFPU.Pipeline(op)
		for lo := 0; lo < len(as); lo += 64 {
			hi := min(lo+64, len(as))
			for i, got := range p.ExecBatch(as[lo:hi], bs[lo:hi]) {
				a, b := as[lo+i], bs[lo+i]
				if want := op.Golden(a, b); got != want {
					t.Errorf("%s(%#x, %#x) = %#x, softfp %#x", op, a, b, got, want)
				}
			}
		}
	}
}

// FuzzPipelinesMatchSoftfp checks the gate-level pipeline of any of the
// 12 ops against softfp on any operand pair, bit for bit. Together with
// the simulator's FuzzNativeFP it closes the chain netlist ≡ softfp ≡
// the host arithmetic the simulator uses where it is exact.
func FuzzPipelinesMatchSoftfp(f *testing.F) {
	for _, op := range Ops() {
		sp := specialOperands(op)
		one := uint64(1) // the int32 1 for i2f
		if op.kind() != kindI2F {
			one = sp[8] // 1.0
		}
		for _, a := range sp {
			f.Add(uint8(op), a, one)
			if op.NumOperands() == 2 {
				f.Add(uint8(op), one, a)
				f.Add(uint8(op), a, a)
			}
		}
	}
	f.Fuzz(func(t *testing.T, opb uint8, a, b uint64) {
		op := Op(opb % uint8(NumOps))
		if w := op.OperandWidth(); w < 64 {
			a &= 1<<uint(w) - 1
			b &= 1<<uint(w) - 1
		}
		got, _ := testFPU.Pipeline(op).Exec(a, b)
		if want := op.Golden(a, b); got != want {
			t.Fatalf("%s(%#x, %#x) = %#x, softfp %#x", op, a, b, got, want)
		}
	})
}
