package netlist

import (
	"math"

	"teva/internal/prng"
)

// Vary returns a copy of the netlist whose every gate carries a
// per-instance random delay multiplier — intra-die process variation,
// the fourth delay-increase source of the paper's Section VI. Factors are
// lognormal with the given sigma (e.g. 0.03 for a 3% spread) so they are
// positive and mildly right-skewed like measured per-transistor
// variation. The same (sigma, seed) reproduces the same die; different
// seeds are different dies of the same design.
//
// Logic function and structure are shared with the original (they are
// immutable); only the Rise/Fall delay arrays are cloned.
func (n *Netlist) Vary(sigma float64, seed uint64) *Netlist {
	if sigma < 0 {
		panic("netlist: negative variation sigma")
	}
	src := prng.New(seed)
	c := *n.c
	c.Rise = make([]float64, len(n.c.Rise))
	c.Fall = make([]float64, len(n.c.Fall))
	for gi := 0; gi < c.NumGates; gi++ {
		factor := math.Exp(src.NormFloat64() * sigma)
		base := gi * c.Stride
		for pi := base; pi < base+int(c.NumIn[gi]); pi++ {
			c.Rise[pi] = n.c.Rise[pi] * factor
			c.Fall[pi] = n.c.Fall[pi] * factor
		}
	}
	out := *n
	out.c = &c
	return &out
}
