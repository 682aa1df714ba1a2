package timingsim_test

import (
	"testing"

	"teva/internal/netlist"
	"teva/internal/prng"
	"teva/internal/timingsim"
)

// randomVectors returns n prev/cur input-vector pairs for the netlist.
func randomVectors(n *netlist.Netlist, count int, seed uint64) (prev, cur [][]bool) {
	src := prng.New(seed)
	ins := len(n.Inputs())
	for i := 0; i < count; i++ {
		p := make([]bool, ins)
		c := make([]bool, ins)
		for j := range p {
			p[j] = src.Intn(2) == 1
			c[j] = src.Intn(2) == 1
		}
		prev = append(prev, p)
		cur = append(cur, c)
	}
	return prev, cur
}

// TestRunSteadyStateAllocs pins the zero-allocation invariant of every
// timing engine's Run: after construction (and one warm-up Run for the
// event-driven engine, whose event heap grows to the circuit's high-water
// mark on first use), timing an instruction allocates nothing. This is
// the invariant that keeps million-pair DTA campaigns out of the
// allocator.
func TestRunSteadyStateAllocs(t *testing.T) {
	n := randomCircuit(t, 0xA110C)
	c := n.Compiled()
	prev, cur := randomVectors(n, 16, 99)

	scalars := map[string]timingsim.Runner{
		"fast":  timingsim.NewFast(c, 1.3),
		"exact": timingsim.NewExact(c, 1.3),
	}
	for name, r := range scalars {
		i := 0
		r.Run(prev[0], cur[0], 2, 400) // warm-up: heap high-water mark
		avg := testing.AllocsPerRun(100, func() {
			r.Run(prev[i%len(prev)], cur[i%len(cur)], 2, 400)
			i++
		})
		if avg != 0 {
			t.Errorf("%s: Run allocates %.1f objects per call, want 0", name, avg)
		}
	}

	wide := timingsim.NewWideFast(c, 1.3)
	words := make([]uint64, len(n.Inputs()))
	prevW := make([]uint64, len(n.Inputs()))
	for j := range words {
		if cur[0][j] {
			words[j] = ^uint64(0)
		}
		if prev[0][j] {
			prevW[j] = 0xAAAA5555AAAA5555
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		wide.Run(prevW, words, 2, 400)
	})
	if avg != 0 {
		t.Errorf("wide: Run allocates %.1f objects per call, want 0", avg)
	}
	// Pruned to every other gate: the tracked-set walk allocates nothing
	// either.
	track := make([]uint64, (c.NumGates+63)/64)
	for j := range track {
		track[j] = 0x5555555555555555
	}
	wide.Prune(track)
	avg = testing.AllocsPerRun(100, func() {
		wide.Run(prevW, words, 2, 400)
	})
	if avg != 0 {
		t.Errorf("pruned wide: Run allocates %.1f objects per call, want 0", avg)
	}
}
