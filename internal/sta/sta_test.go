package sta_test

import (
	"math"
	"testing"

	"teva/internal/cell"
	"teva/internal/logicsim"
	"teva/internal/netlist"
	"teva/internal/prng"
	"teva/internal/sta"
	"teva/internal/timingsim"
)

var lib = cell.Default()

const (
	clkToQ = 85.0
	setup  = 35.0
)

func TestChainWorstDelay(t *testing.T) {
	b := netlist.NewBuilder("chain", lib, 3)
	x := b.InputNet()
	out := b.BufChain(x, 7)
	b.Output(netlist.Bus{out})
	n := b.MustBuild()
	var want float64
	c := n.Compiled()
	for gi := 0; gi < c.NumGates; gi++ {
		pi := gi * c.Stride
		want += cell.PinDelay{Rise: c.Rise[pi], Fall: c.Fall[pi]}.Max()
	}
	r := sta.Analyze(n.Compiled(), clkToQ, setup)
	if math.Abs(r.WorstDelay-(clkToQ+want+setup)) > 1e-9 {
		t.Fatalf("WorstDelay %v, want %v", r.WorstDelay, clkToQ+want+setup)
	}
	if len(r.EndpointDelay) != 1 || r.EndpointDelay[0] != r.WorstDelay {
		t.Fatalf("endpoint delays %v", r.EndpointDelay)
	}
}

func TestTopPathsChain(t *testing.T) {
	b := netlist.NewBuilder("chain", lib, 3)
	x := b.InputNet()
	out := b.BufChain(x, 7)
	b.Output(netlist.Bus{out})
	n := b.MustBuild()
	r := sta.Analyze(n.Compiled(), clkToQ, setup)
	paths, truncated := r.TopPaths(10)
	if truncated {
		t.Fatal("trivial chain should not truncate")
	}
	if len(paths) != 1 {
		t.Fatalf("chain has %d paths, want 1", len(paths))
	}
	if math.Abs(paths[0].Delay-r.WorstDelay) > 1e-9 {
		t.Fatalf("path delay %v vs worst %v", paths[0].Delay, r.WorstDelay)
	}
	if len(paths[0].Nets) != 8 { // input + 7 buffer outputs
		t.Fatalf("path has %d nets", len(paths[0].Nets))
	}
}

func adder(t *testing.T, w int) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("adder", lib, 4)
	b.SetUnit("adder")
	x := b.Input(w)
	y := b.Input(w)
	sum, cout := b.RippleAdder(x, y, b.InputNet())
	b.Output(append(append(netlist.Bus{}, sum...), cout))
	return b.MustBuild()
}

func TestTopPathsSortedAndBounded(t *testing.T) {
	n := adder(t, 12)
	r := sta.Analyze(n.Compiled(), clkToQ, setup)
	paths, _ := r.TopPaths(50)
	if len(paths) != 50 {
		t.Fatalf("got %d paths", len(paths))
	}
	if math.Abs(paths[0].Delay-r.WorstDelay) > 1e-9 {
		t.Fatalf("first path %v != worst delay %v", paths[0].Delay, r.WorstDelay)
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Delay > paths[i-1].Delay+1e-9 {
			t.Fatalf("paths not in descending order at %d", i)
		}
	}
	for _, p := range paths {
		if p.Unit != "adder" || p.Netlist != "adder" {
			t.Fatalf("path labels wrong: %+v", p)
		}
		if len(p.Nets) < 2 {
			t.Fatalf("degenerate path %+v", p)
		}
	}
}

func TestPathNetsFormRealPath(t *testing.T) {
	n := adder(t, 8)
	r := sta.Analyze(n.Compiled(), clkToQ, setup)
	paths, _ := r.TopPaths(20)
	isInput := make(map[netlist.NetID]bool)
	for _, in := range n.Inputs() {
		isInput[in] = true
	}
	isOutput := make(map[netlist.NetID]bool)
	for _, out := range n.Outputs() {
		isOutput[out] = true
	}
	for _, p := range paths {
		if !isInput[p.Nets[0]] {
			t.Fatal("path must start at a primary input")
		}
		if !isOutput[p.Nets[len(p.Nets)-1]] {
			t.Fatal("path must end at a primary output")
		}
		c := n.Compiled()
		for i := 1; i < len(p.Nets); i++ {
			d := c.Driver[p.Nets[i]]
			if d < 0 {
				t.Fatal("path net has no driver")
			}
			found := false
			for _, in := range c.Pins(d) {
				if netlist.NetID(in) == p.Nets[i-1] {
					found = true
				}
			}
			if !found {
				t.Fatal("consecutive path nets not connected by a gate")
			}
		}
	}
}

func TestSTABoundsDynamicArrival(t *testing.T) {
	// STA must upper-bound every dynamically observed arrival.
	const w = 12
	n := adder(t, w)
	r := sta.Analyze(n.Compiled(), clkToQ, setup)
	fast := timingsim.NewFast(n.Compiled(), 1.0)
	exact := timingsim.NewExact(n.Compiled(), 1.0)
	src := prng.New(55)
	prev := make([]bool, 2*w+1)
	cur := make([]bool, 2*w+1)
	for trial := 0; trial < 500; trial++ {
		for i := range prev {
			prev[i] = src.Bool()
			cur[i] = src.Bool()
		}
		for _, s := range []*timingsim.Sample{
			fast.Run(prev, cur, clkToQ, timingsim.MaxDeadline),
			exact.Run(prev, cur, clkToQ, timingsim.MaxDeadline),
		} {
			if s.WorstArrival+setup > r.WorstDelay+1e-9 {
				t.Fatalf("dynamic arrival %v exceeds STA bound %v",
					s.WorstArrival+setup, r.WorstDelay)
			}
		}
	}
}

func TestSTACriticalPathIsAchievable(t *testing.T) {
	// For a ripple adder the critical path (full carry propagation) is
	// excitable: driving it dynamically should reach a large fraction of
	// the STA bound. This pins down the pessimism gap.
	const w = 12
	n := adder(t, w)
	r := sta.Analyze(n.Compiled(), clkToQ, setup)
	fast := timingsim.NewFast(n.Compiled(), 1.0)
	mk := func(x, y, cin uint64) []bool {
		in := make([]bool, 2*w+1)
		logicsim.PackInputs(in, 0, w, x)
		logicsim.PackInputs(in, w, w, y)
		in[2*w] = cin == 1
		return in
	}
	s := fast.Run(mk(1<<w-1, 0, 0), mk(1<<w-1, 0, 1), clkToQ, timingsim.MaxDeadline)
	if s.WorstArrival+setup < 0.7*r.WorstDelay {
		t.Fatalf("full carry chain reaches only %v of STA bound %v",
			s.WorstArrival+setup, r.WorstDelay)
	}
}

func TestClockPeriod(t *testing.T) {
	n1 := adder(t, 8)
	n2 := adder(t, 16)
	r1 := sta.Analyze(n1.Compiled(), clkToQ, setup)
	r2 := sta.Analyze(n2.Compiled(), clkToQ, setup)
	clk := sta.ClockPeriod([]*sta.Report{r1, r2}, 1.0)
	if clk != r2.WorstDelay {
		t.Fatalf("ClockPeriod %v, want the wider adder's %v", clk, r2.WorstDelay)
	}
	if m := sta.ClockPeriod([]*sta.Report{r1, r2}, 1.05); math.Abs(m-clk*1.05) > 1e-9 {
		t.Fatalf("margin not applied: %v", m)
	}
}

func TestTopPathsAcrossAndUnitDistribution(t *testing.T) {
	b1 := netlist.NewBuilder("fpu", lib, 5)
	b1.SetUnit("fpu/mul")
	x := b1.Input(16)
	y := b1.Input(16)
	s1 := b1.Sum(b1.RippleAdder(x, y, netlist.Const0))
	b1.Output(s1)
	nFPU := b1.MustBuild()

	b2 := netlist.NewBuilder("alu", lib, 6)
	b2.SetUnit("alu")
	a := b2.Input(4)
	c := b2.Input(4)
	s2 := b2.XorBus(a, c)
	b2.Output(s2)
	nALU := b2.MustBuild()

	rFPU := sta.Analyze(nFPU.Compiled(), clkToQ, setup)
	rALU := sta.Analyze(nALU.Compiled(), clkToQ, setup)
	paths, truncated := sta.TopPathsAcross([]*sta.Report{rFPU, rALU}, 30)
	if truncated {
		t.Fatal("small circuits should not hit the enumeration budget")
	}
	if len(paths) != 30 {
		t.Fatalf("got %d paths", len(paths))
	}
	dist := sta.UnitDistribution(paths)
	// All long paths live in the 16-bit adder; the 1-level XOR unit must
	// not appear among the top 30.
	if dist["fpu/mul"] != 30 || dist["alu"] != 0 {
		t.Fatalf("unit distribution %v", dist)
	}
}

func TestConstantFedOutput(t *testing.T) {
	b := netlist.NewBuilder("const", lib, 7)
	x := b.InputNet()
	b.Output(netlist.Bus{netlist.Const0, x})
	n := b.MustBuild()
	r := sta.Analyze(n.Compiled(), clkToQ, setup)
	if r.EndpointDelay[0] != 0 {
		t.Fatalf("constant endpoint should have zero delay, got %v", r.EndpointDelay[0])
	}
	if math.Abs(r.EndpointDelay[1]-(clkToQ+setup)) > 1e-9 {
		t.Fatalf("feedthrough endpoint delay %v", r.EndpointDelay[1])
	}
}
