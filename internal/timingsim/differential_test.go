package timingsim_test

// Differential tests: the compiled-IR engines (logicsim.Sim/WideSim,
// timingsim.FastSim/ExactSim) must reproduce the behaviour of the legacy
// per-gate closure walk exactly. The reference engines below are faithful
// test-local ports of the pre-compilation implementations, operating
// directly on the netlist's gate list (with Gate.Op.EvalSlice standing in
// for the removed Eval closure). Circuits are random DAGs from
// netlist.Builder, deliberately including duplicate-input gates and
// input-fed-through outputs.

import (
	"container/heap"
	"math"
	"slices"
	"testing"

	"teva/internal/logicsim"
	"teva/internal/netlist"
	"teva/internal/prng"
	"teva/internal/sta"
	"teva/internal/timingsim"
)

// randomCircuit builds an arbitrary combinational DAG. pick may return the
// same net for several pins of one gate (exercising the duplicate-pin
// fanout semantics) and outputs may repeat or tap primary inputs.
func randomCircuit(t *testing.T, seed uint64) *netlist.Netlist {
	t.Helper()
	src := prng.New(seed)
	b := netlist.NewBuilder("diff", lib, seed)
	pool := make([]netlist.NetID, 0, 160)
	for i, n := 0, 4+src.Intn(9); i < n; i++ {
		pool = append(pool, b.InputNet())
	}
	pick := func() netlist.NetID { return pool[src.Intn(len(pool))] }
	for i, n := 0, 30+src.Intn(91); i < n; i++ {
		var out netlist.NetID
		switch src.Intn(13) {
		case 0:
			out = b.Not(pick())
		case 1:
			out = b.Buf(pick())
		case 2:
			out = b.And(pick(), pick())
		case 3:
			out = b.Or(pick(), pick())
		case 4:
			out = b.Nand(pick(), pick())
		case 5:
			out = b.Nor(pick(), pick())
		case 6:
			out = b.Xor(pick(), pick())
		case 7:
			out = b.Xnor(pick(), pick())
		case 8:
			out = b.And3(pick(), pick(), pick())
		case 9:
			out = b.Or3(pick(), pick(), pick())
		case 10:
			out = b.Mux(pick(), pick(), pick())
		case 11:
			sum, carry := b.HalfAdd(pick(), pick())
			pool = append(pool, sum)
			out = carry
		default:
			sum, carry := b.FullAdd(pick(), pick(), pick())
			pool = append(pool, sum)
			out = carry
		}
		pool = append(pool, out)
	}
	var outs netlist.Bus
	for i := 0; i < 8; i++ {
		outs = append(outs, pick())
	}
	outs = append(outs, pool[len(pool)-1], pool[len(pool)-2])
	b.Output(outs)
	// The random DAG intentionally leaves unpicked pool nets unconsumed.
	b.Discard(pool...)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// refLogicRun is the legacy functional walk: evaluate gates in stored
// (topological) order via per-gate slice dispatch.
func refLogicRun(n *netlist.Netlist, inputs []bool) []bool {
	values := make([]bool, n.NumNets())
	values[netlist.Const1] = true
	for i, net := range n.Inputs() {
		values[net] = inputs[i]
	}
	buf := make([]bool, 4)
	gates := n.Gates()
	for gi := range gates {
		g := &gates[gi]
		in := buf[:len(g.Inputs)]
		for i, net := range g.Inputs {
			in[i] = values[net]
		}
		values[g.Output] = g.Op.EvalSlice(in)
	}
	return values
}

// refFast is the pre-compilation levelized arrival engine.
type refFast struct {
	n       *netlist.Netlist
	scale   float64
	oldV    []bool
	newV    []bool
	changed []bool
	arrival []float64
	sample  timingsim.Sample
}

func newRefFast(n *netlist.Netlist, scale float64) *refFast {
	s := &refFast{
		n:       n,
		scale:   scale,
		oldV:    make([]bool, n.NumNets()),
		newV:    make([]bool, n.NumNets()),
		changed: make([]bool, n.NumNets()),
		arrival: make([]float64, n.NumNets()),
	}
	s.oldV[netlist.Const1] = true
	s.newV[netlist.Const1] = true
	outs := len(n.Outputs())
	s.sample = timingsim.Sample{
		Captured: make([]bool, outs),
		Settled:  make([]bool, outs),
		Arrival:  make([]float64, outs),
	}
	return s
}

func (s *refFast) Run(prev, cur []bool, inputArrival, deadline float64) *timingsim.Sample {
	for i, net := range s.n.Inputs() {
		s.oldV[net] = prev[i]
		s.newV[net] = cur[i]
		s.changed[net] = prev[i] != cur[i]
		s.arrival[net] = inputArrival
	}
	var toggles int64
	var energy float64
	gates := s.n.Gates()
	var bufOld, bufNew [4]bool
	for gi := range gates {
		g := &gates[gi]
		ni := len(g.Inputs)
		anyChanged := false
		for i := 0; i < ni; i++ {
			in := g.Inputs[i]
			bufOld[i] = s.oldV[in]
			bufNew[i] = s.newV[in]
			anyChanged = anyChanged || s.changed[in]
		}
		out := g.Output
		oldOut := g.Op.EvalSlice(bufOld[:ni])
		s.oldV[out] = oldOut
		if !anyChanged {
			s.newV[out] = oldOut
			s.changed[out] = false
			s.arrival[out] = 0
			continue
		}
		newOut := g.Op.EvalSlice(bufNew[:ni])
		s.newV[out] = newOut
		if newOut == oldOut {
			s.changed[out] = false
			s.arrival[out] = 0
			continue
		}
		toggles++
		energy += g.Energy
		s.changed[out] = true
		worst := 0.0
		for i := 0; i < ni; i++ {
			in := g.Inputs[i]
			if !s.changed[in] {
				continue
			}
			var d float64
			if newOut {
				d = g.Delays[i].Rise
			} else {
				d = g.Delays[i].Fall
			}
			if t := s.arrival[in] + d*s.scale; t > worst {
				worst = t
			}
		}
		if worst == 0 {
			worst = inputArrival
		}
		s.arrival[out] = worst
	}

	sm := &s.sample
	sm.WorstArrival = 0
	sm.Violations = 0
	sm.Toggles = toggles
	sm.EnergyFJ = energy
	for i, net := range s.n.Outputs() {
		settled := s.newV[net]
		sm.Settled[i] = settled
		arr := 0.0
		if s.changed[net] {
			arr = s.arrival[net]
		}
		sm.Arrival[i] = arr
		if arr > sm.WorstArrival {
			sm.WorstArrival = arr
		}
		if s.changed[net] && arr > deadline {
			sm.Captured[i] = s.oldV[net]
			sm.Violations++
		} else {
			sm.Captured[i] = settled
		}
	}
	return sm
}

// refExact is the pre-compilation event-driven inertial engine.
type refEvent struct {
	time  float64
	seq   uint64
	net   netlist.NetID
	value bool
	stamp uint32
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type refExact struct {
	n          *netlist.Netlist
	scale      float64
	values     []bool
	atDeadline []bool
	lastChange []float64
	stamp      []uint32
	heap       refEventHeap
	seq        uint64
	sample     timingsim.Sample
	inBuf      [4]bool
}

func newRefExact(n *netlist.Netlist, scale float64) *refExact {
	s := &refExact{
		n:          n,
		scale:      scale,
		values:     make([]bool, n.NumNets()),
		atDeadline: make([]bool, n.NumNets()),
		lastChange: make([]float64, n.NumNets()),
		stamp:      make([]uint32, n.NumNets()),
	}
	outs := len(n.Outputs())
	s.sample = timingsim.Sample{
		Captured: make([]bool, outs),
		Settled:  make([]bool, outs),
		Arrival:  make([]float64, outs),
	}
	return s
}

func (s *refExact) settle(inputs []bool) {
	s.values[netlist.Const0] = false
	s.values[netlist.Const1] = true
	for i, net := range s.n.Inputs() {
		s.values[net] = inputs[i]
	}
	gates := s.n.Gates()
	for gi := range gates {
		g := &gates[gi]
		buf := s.inBuf[:len(g.Inputs)]
		for i, in := range g.Inputs {
			buf[i] = s.values[in]
		}
		s.values[g.Output] = g.Op.EvalSlice(buf)
	}
}

func (s *refExact) scheduleGate(g *netlist.Gate, changedPin int, t float64) {
	buf := s.inBuf[:len(g.Inputs)]
	for i, in := range g.Inputs {
		buf[i] = s.values[in]
	}
	v := g.Op.EvalSlice(buf)
	out := g.Output
	s.stamp[out]++
	if v == s.values[out] {
		return
	}
	var d float64
	if v {
		d = g.Delays[changedPin].Rise
	} else {
		d = g.Delays[changedPin].Fall
	}
	s.seq++
	heap.Push(&s.heap, refEvent{
		time:  t + d*s.scale,
		seq:   s.seq,
		net:   out,
		value: v,
		stamp: s.stamp[out],
	})
}

func (s *refExact) Run(prev, cur []bool, inputArrival, deadline float64) *timingsim.Sample {
	s.settle(prev)
	for i := range s.lastChange {
		s.lastChange[i] = 0
		s.stamp[i] = 0
	}
	s.heap = s.heap[:0]
	s.seq = 0

	for i, net := range s.n.Inputs() {
		if cur[i] != prev[i] {
			s.seq++
			s.stamp[net]++
			heap.Push(&s.heap, refEvent{
				time:  inputArrival,
				seq:   s.seq,
				net:   net,
				value: cur[i],
				stamp: s.stamp[net],
			})
		}
	}

	snapshotTaken := false
	var toggles int64
	var energy float64
	for s.heap.Len() > 0 {
		e := heap.Pop(&s.heap).(refEvent)
		if e.stamp != s.stamp[e.net] {
			continue
		}
		if !snapshotTaken && e.time > deadline {
			copy(s.atDeadline, s.values)
			snapshotTaken = true
		}
		if s.values[e.net] == e.value {
			continue
		}
		s.values[e.net] = e.value
		s.lastChange[e.net] = e.time
		if d := s.n.Driver(e.net); d >= 0 {
			toggles++
			energy += s.n.Gate(d).Energy
		}
		for _, gid := range s.n.Fanout(e.net) {
			g := s.n.Gate(gid)
			pin := 0
			for i, in := range g.Inputs {
				if in == e.net {
					pin = i
					break
				}
			}
			s.scheduleGate(g, pin, e.time)
		}
	}
	if !snapshotTaken {
		copy(s.atDeadline, s.values)
	}

	sm := &s.sample
	sm.WorstArrival = 0
	sm.Violations = 0
	sm.Toggles = toggles
	sm.EnergyFJ = energy
	for i, net := range s.n.Outputs() {
		sm.Settled[i] = s.values[net]
		sm.Captured[i] = s.atDeadline[net]
		sm.Arrival[i] = s.lastChange[net]
		if sm.Arrival[i] > sm.WorstArrival {
			sm.WorstArrival = sm.Arrival[i]
		}
		if sm.Captured[i] != sm.Settled[i] {
			sm.Violations++
		}
	}
	return sm
}

func compareSamples(t *testing.T, tag string, seed uint64, trial int, want, got *timingsim.Sample) {
	t.Helper()
	if want.Violations != got.Violations {
		t.Fatalf("%s seed %d trial %d: violations %d want %d", tag, seed, trial, got.Violations, want.Violations)
	}
	if want.Toggles != got.Toggles {
		t.Fatalf("%s seed %d trial %d: toggles %d want %d", tag, seed, trial, got.Toggles, want.Toggles)
	}
	if math.Abs(want.EnergyFJ-got.EnergyFJ) > 1e-9 {
		t.Fatalf("%s seed %d trial %d: energy %v want %v", tag, seed, trial, got.EnergyFJ, want.EnergyFJ)
	}
	if math.Abs(want.WorstArrival-got.WorstArrival) > 1e-9 {
		t.Fatalf("%s seed %d trial %d: worst arrival %v want %v", tag, seed, trial, got.WorstArrival, want.WorstArrival)
	}
	for i := range want.Captured {
		if want.Captured[i] != got.Captured[i] {
			t.Fatalf("%s seed %d trial %d: captured[%d] = %v want %v", tag, seed, trial, i, got.Captured[i], want.Captured[i])
		}
		if want.Settled[i] != got.Settled[i] {
			t.Fatalf("%s seed %d trial %d: settled[%d] = %v want %v", tag, seed, trial, i, got.Settled[i], want.Settled[i])
		}
		if math.Abs(want.Arrival[i]-got.Arrival[i]) > 1e-9 {
			t.Fatalf("%s seed %d trial %d: arrival[%d] = %v want %v", tag, seed, trial, i, got.Arrival[i], want.Arrival[i])
		}
	}
}

func TestCompiledTimingEnginesMatchReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1009, 77777} {
		n := randomCircuit(t, seed)
		c := n.Compiled()
		src := prng.New(seed ^ 0xD1FF)
		ins := len(n.Inputs())
		prev := make([]bool, ins)
		cur := make([]bool, ins)
		for _, scale := range []float64{1.0, 1.18, 1.35} {
			fast := timingsim.NewFast(c, scale)
			exact := timingsim.NewExact(c, scale)
			rf := newRefFast(n, scale)
			re := newRefExact(n, scale)
			for trial := 0; trial < 25; trial++ {
				for i := range prev {
					prev[i] = src.Bool()
					cur[i] = src.Bool()
				}
				worst := re.Run(prev, cur, 10, timingsim.MaxDeadline).WorstArrival
				for _, frac := range []float64{0.3, 0.7, 1.05} {
					deadline := worst * frac
					compareSamples(t, "fast", seed, trial,
						rf.Run(prev, cur, 10, deadline), fast.Run(prev, cur, 10, deadline))
					compareSamples(t, "exact", seed, trial,
						re.Run(prev, cur, 10, deadline), exact.Run(prev, cur, 10, deadline))
				}
			}
		}
	}
}

// compareLaneExact asserts a wide lane reproduces the scalar FastSim
// sample bit for bit — including exact float equality on every arrival,
// the energy sum and the worst arrival, which the wide engine guarantees
// by performing the identical float operations in the identical order.
func compareLaneExact(t *testing.T, seed uint64, trial, lane int, want, got *timingsim.Sample) {
	t.Helper()
	if want.Violations != got.Violations || want.Toggles != got.Toggles {
		t.Fatalf("seed %d trial %d lane %d: violations/toggles %d/%d want %d/%d",
			seed, trial, lane, got.Violations, got.Toggles, want.Violations, want.Toggles)
	}
	//teva:allow floateq -- bit-exactness is the contract under test
	if want.EnergyFJ != got.EnergyFJ || want.WorstArrival != got.WorstArrival {
		t.Fatalf("seed %d trial %d lane %d: energy/worst %v/%v want %v/%v",
			seed, trial, lane, got.EnergyFJ, got.WorstArrival, want.EnergyFJ, want.WorstArrival)
	}
	for i := range want.Captured {
		//teva:allow floateq -- bit-exactness is the contract under test
		if want.Captured[i] != got.Captured[i] || want.Settled[i] != got.Settled[i] || want.Arrival[i] != got.Arrival[i] {
			t.Fatalf("seed %d trial %d lane %d output %d: captured/settled/arrival %v/%v/%v want %v/%v/%v",
				seed, trial, lane, i, got.Captured[i], got.Settled[i], got.Arrival[i],
				want.Captured[i], want.Settled[i], want.Arrival[i])
		}
	}
}

// TestWideFastMatchesScalarFast drives 64 random transitions per circuit
// through one WideFastSim walk and through 64 scalar FastSim runs, and
// requires every lane to match bit for bit. Circuits include
// duplicate-pin gates and outputs tapping primary inputs; deadlines sit
// inside the contested settling window so late captures occur.
func TestWideFastMatchesScalarFast(t *testing.T) {
	for _, seed := range []uint64{2, 17, 404, 90210} {
		n := randomCircuit(t, seed)
		c := n.Compiled()
		src := prng.New(seed*0x9E3779B9 + 1)
		ins := len(n.Inputs())
		prevs := make([][]bool, 64)
		curs := make([][]bool, 64)
		prevW := make([]uint64, ins)
		curW := make([]uint64, ins)
		for _, scale := range []float64{1.0, 1.27} {
			fast := timingsim.NewFast(c, scale)
			wide := timingsim.NewWideFast(c, scale)
			exact := timingsim.NewExact(c, scale)
			var laneBuf timingsim.Sample
			for trial := 0; trial < 10; trial++ {
				for i := range prevW {
					prevW[i] = 0
					curW[i] = 0
				}
				for lane := 0; lane < 64; lane++ {
					p := make([]bool, ins)
					q := make([]bool, ins)
					for i := range p {
						p[i] = src.Bool()
						q[i] = src.Bool()
						if p[i] {
							prevW[i] |= 1 << uint(lane)
						}
						if q[i] {
							curW[i] |= 1 << uint(lane)
						}
					}
					prevs[lane], curs[lane] = p, q
				}
				// Pick a deadline in the contested region of lane 0.
				worst := exact.Run(prevs[0], curs[0], 10, timingsim.MaxDeadline).WorstArrival
				for _, frac := range []float64{0.4, 0.8, 1.1} {
					deadline := worst * frac
					wide.Run(prevW, curW, 10, deadline)
					for lane := 0; lane < 64; lane++ {
						want := fast.Run(prevs[lane], curs[lane], 10, deadline)
						got := wide.LaneSample(lane, &laneBuf)
						compareLaneExact(t, seed, trial, lane, want, got)
					}
				}
			}
		}
	}
}

// TestWidePruneMatchesFull checks a pruned WideFastSim against a full
// one on the same transitions. The tracked set comes from the static
// bound as dta builds it: a gate is tracked when inputArrival plus the
// scaled longest path through its output can pass the deadline. Captured
// values and violations must be equal; every arrival must be at most the
// full engine's and equal to it at a late endpoint. The pruned engine
// shares its scratch with a full engine that first times an unrelated
// transition, so a pruned walk that reads an arrival row it did not write
// this Run sees a stale value and fails the bound.
func TestWidePruneMatchesFull(t *testing.T) {
	const inputArrival = 10
	for _, seed := range []uint64{5, 23, 777, 31337} {
		n := randomCircuit(t, seed)
		c := n.Compiled()
		static := sta.Analyze(c, 0, 0)
		src := prng.New(seed ^ 0x9121)
		ins := len(n.Inputs())
		word := func() []uint64 {
			w := make([]uint64, ins)
			for i := range w {
				w[i] = src.Uint64()
			}
			return w
		}
		for _, scale := range []float64{1.0, 1.27} {
			full := timingsim.NewWideFast(c, scale)
			ws := timingsim.NewWideScratch(c.NumNets)
			noise := timingsim.NewWideFastShared(c, scale, ws)
			pruned := timingsim.NewWideFastShared(c, scale, ws)
			for trial := 0; trial < 10; trial++ {
				prev, cur := word(), word()
				worst := full.Run(prev, cur, inputArrival, timingsim.MaxDeadline).WorstArrival
				for _, frac := range []float64{0.4, 0.8, 1.1} {
					deadline := slices.Max(worst[:]) * frac
					track := make([]uint64, (c.NumGates+63)/64)
					tracked := 0
					for gi := 0; gi < c.NumGates; gi++ {
						if inputArrival+scale*static.PathDelay(netlist.NetID(c.Out[gi])) > deadline*(1-1e-9) {
							track[gi>>6] |= 1 << uint(gi&63)
							tracked++
						}
					}
					pruned.Prune(track)
					noise.Run(word(), word(), inputArrival, deadline)
					got := pruned.Run(prev, cur, inputArrival, deadline).Clone()
					want := full.Run(prev, cur, inputArrival, deadline)
					if !slices.Equal(got.Captured, want.Captured) || got.Violations != want.Violations {
						t.Fatalf("seed %d scale %v trial %d frac %v (%d/%d gates tracked): captured or violations differ",
							seed, scale, trial, frac, tracked, c.NumGates)
					}
					for oi := range c.Outputs {
						for lane := 0; lane < 64; lane++ {
							g, w := pruned.LaneArrival(oi, lane), full.LaneArrival(oi, lane)
							//teva:allow floateq -- a late endpoint's arrival must be exact
							if g > w || (w > deadline && g != w) {
								t.Fatalf("seed %d scale %v trial %d frac %v: output %d lane %d arrives at %v pruned, %v full (deadline %v)",
									seed, scale, trial, frac, oi, lane, g, w, deadline)
							}
						}
					}
					if got.Toggles != [64]int64{} || got.EnergyFJ != [64]float64{} {
						t.Fatalf("seed %d: pruned engine counted toggles or energy", seed)
					}
				}
			}
		}
	}
}

func TestCompiledLogicAndWideMatchReference(t *testing.T) {
	for _, seed := range []uint64{3, 99, 2024} {
		n := randomCircuit(t, seed)
		c := n.Compiled()
		sim := logicsim.New(c)
		wide := logicsim.NewWide(c)
		src := prng.New(seed + 13)
		ins := len(n.Inputs())
		outs := n.Outputs()
		words := make([]uint64, ins)
		scalar := make([][]bool, 64)
		for lane := 0; lane < 64; lane++ {
			v := make([]bool, ins)
			for i := range v {
				v[i] = src.Bool()
				if v[i] {
					words[i] |= 1 << uint(lane)
				}
			}
			ref := refLogicRun(n, v)
			sim.Run(v)
			got := make([]bool, len(outs))
			for oi, net := range outs {
				got[oi] = sim.Value(net)
				if got[oi] != ref[net] {
					t.Fatalf("seed %d lane %d: scalar output %d = %v want %v", seed, lane, oi, got[oi], ref[net])
				}
			}
			scalar[lane] = got
		}
		wide.Run(words)
		for lane := 0; lane < 64; lane++ {
			for oi, net := range outs {
				if got := wide.Word(net)>>uint(lane)&1 == 1; got != scalar[lane][oi] {
					t.Fatalf("seed %d lane %d: wide output %d = %v want %v", seed, lane, oi, got, scalar[lane][oi])
				}
			}
		}
	}
}
