package netlist_test

import (
	"testing"

	"teva/internal/alu"
	"teva/internal/fpu"
	"teva/internal/netlist"
)

// TestCompiledMatchesLegacy builds the repository's real circuits — every
// stage fpu.New builds (calibration rebuilds included) at three seeds,
// the integer units, and the four adder-ablation circuits — and requires
// each netlist's Compiled arrays, Stats and TotalEnergy to equal the
// legacy array-of-structs pipeline's lowering of the same builder calls,
// floats by their bits, for the nominal netlist and two Vary dies.
// Random builder DAGs are TestCompiledMatchesLegacyRandomDAGs.
func TestCompiledMatchesLegacy(t *testing.T) {
	seeds := []uint64{0xF00D, 1, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	done := netlist.CaptureLegacy()
	defer done()
	minBuilds := 4 // the adder circuits; calibration rebuilds come on top
	for _, seed := range seeds {
		f, err := fpu.New(lib, seed)
		if err != nil {
			t.Fatalf("fpu seed %#x: %v", seed, err)
		}
		if _, err := alu.New(lib, seed); err != nil {
			t.Fatalf("alu seed %#x: %v", seed, err)
		}
		minBuilds += 3
		for _, op := range fpu.Ops() {
			minBuilds += len(f.Pipeline(op).Stages)
		}
	}
	// The adders ablation's circuits: 56-bit ripple, hybrid-8, hybrid-16
	// and Kogge-Stone, as the experiment builds them.
	const w = 56
	for _, build := range []func(b *netlist.Builder, x, y netlist.Bus) netlist.Bus{
		func(b *netlist.Builder, x, y netlist.Bus) netlist.Bus {
			return b.Sum(b.RippleAdder(x, y, netlist.Const0))
		},
		func(b *netlist.Builder, x, y netlist.Bus) netlist.Bus {
			return b.Sum(b.HybridAdder(x, y, netlist.Const0, 8))
		},
		func(b *netlist.Builder, x, y netlist.Bus) netlist.Bus {
			return b.Sum(b.HybridAdder(x, y, netlist.Const0, 16))
		},
		func(b *netlist.Builder, x, y netlist.Bus) netlist.Bus {
			return b.Sum(b.PrefixAdder(x, y, netlist.Const0))
		},
	} {
		b := netlist.NewBuilder("ablate", lib, 0xADDE)
		x := b.Input(w)
		y := b.Input(w)
		b.Output(build(b, x, y))
		if _, err := b.Build(); err != nil {
			t.Fatal(err)
		}
	}
	pairs := done()
	if len(pairs) < minBuilds {
		t.Fatalf("captured %d builds, want at least %d: every FPU stage, integer unit and adder", len(pairs), minBuilds)
	}
	for i, p := range pairs {
		p.Check(t, uint64(i), uint64(i)^0x5eed)
	}
}
