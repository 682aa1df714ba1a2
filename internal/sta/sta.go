// Package sta performs static timing analysis on netlists as a two-pass
// engine: a forward pass propagates worst-case arrival times from the
// launching registers, and a backward pass propagates required times from
// the capturing registers, so every net carries a real slack
// (Slack = Required − Arrival), not just the endpoints. On top of the two
// passes sit clock-period determination (Eq. 1 of the paper) and
// enumeration of the K longest register-to-register paths (the analysis
// behind the paper's Figure 4). Analysis runs on the compiled flat IR
// (netlist.Compiled), the same substrate the simulation engines use, and
// walks the IR's precomputed topological levels serially in schedule
// order: ascending for arrivals, descending for required times.
//
// Path delay follows the paper's convention: D(P) includes the launching
// register's clock-to-output delay and the capturing register's setup time.
//
// AnalyzeCorner re-derates the compiled library at an operating corner
// (voltage, temperature, process; see cell.Corner) without rebuilding the
// netlist: the alpha-power delay scale is applied per pin during both
// passes, which keeps the corner abstraction open for future non-uniform
// derating models.
package sta

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

	"teva/internal/cell"
	"teva/internal/netlist"
)

// Path is one register-to-register timing path.
type Path struct {
	// Delay is the total path delay, including clock-to-Q and setup, ps.
	Delay float64
	// Nets is the net sequence from the launching input to the endpoint.
	Nets []netlist.NetID
	// Unit is the functional-unit tag of the gate driving the endpoint.
	Unit string
	// Netlist names the circuit the path belongs to.
	Netlist string
}

// Slack returns CLK - Delay for the given clock period.
func (p Path) Slack(clk float64) float64 { return clk - p.Delay }

// Report is the STA result for one netlist.
type Report struct {
	// Netlist names the analyzed circuit.
	Netlist string
	// Corner labels the operating corner the analysis ran at ("nominal"
	// for plain Analyze).
	Corner string
	// Derate is the uniform delay inflation applied to every cell delay
	// (1 at the nominal corner).
	Derate float64
	// WorstDelay is the longest path delay (with clock-to-Q and setup), ps.
	WorstDelay float64
	// EndpointDelay maps each primary output index to its worst delay.
	EndpointDelay []float64
	arrival       []float64 // per net, worst arrival (incl. clock-to-Q)
	toEnd         []float64 // per net, longest remaining delay to any endpoint (excl. setup); -Inf when none is reachable
	c             *netlist.Compiled
	clkToQ, setup float64 // derated register parameters
}

// pinDelayMax returns the worse of a pin's rise/fall delays at flat pin
// index pi (gate*stride + pin).
func pinDelayMax(c *netlist.Compiled, pi int) float64 {
	if r, f := c.Rise[pi], c.Fall[pi]; r > f {
		return r
	} else {
		return f
	}
}

// Analyze runs STA on the compiled netlist with the given register timing
// parameters (typically Library.ClockToQ and Library.Setup).
func Analyze(c *netlist.Compiled, clkToQ, setup float64) *Report {
	return analyze(c, clkToQ, setup, 1, "nominal")
}

// AnalyzeCorner runs STA with the compiled library re-derated at the
// operating corner: every pin delay, the clock-to-Q delay and the setup
// time are inflated by the corner's alpha-power delay scale (see
// cell.Corner.Derate). The netlist is not rebuilt — derating happens
// during the passes.
func AnalyzeCorner(c *netlist.Compiled, clkToQ, setup float64, corner cell.Corner) *Report {
	return analyze(c, clkToQ, setup, corner.Derate(), corner.Label())
}

// passState carries the two-pass engine's per-analysis state. The
// per-gate kernels are named methods (rather than closures inside
// analyze) so the //teva:hotpath annotation can mark them and the
// hotalloc analyzer can prove the level walk allocation-free — analyze
// itself allocates the report arrays once up front and is deliberately
// outside the hot set.
type passState struct {
	c        *netlist.Compiled
	stride   int
	derate   float64
	arrival  []float64
	toEnd    []float64
	isOutput []bool
}

// forward computes one gate's worst-case output arrival from its already
// final input arrivals (levels ascending make that ordering safe).
//
//teva:hotpath
func (ps *passState) forward(gi int32) {
	c := ps.c
	base := int(gi) * ps.stride
	worst := math.Inf(-1)
	ni := int(c.NumIn[gi])
	for pin := 0; pin < ni; pin++ {
		if a := ps.arrival[c.In[base+pin]]; !math.IsInf(a, -1) {
			if t := a + ps.derate*pinDelayMax(c, base+pin); t > worst {
				worst = t
			}
		}
	}
	ps.arrival[c.Out[gi]] = worst
}

// relax computes the longest remaining delay from a net to any endpoint
// from its readers' already-final continuations.
func (ps *passState) relax(net int32) float64 {
	c := ps.c
	best := math.Inf(-1)
	if ps.isOutput[net] {
		best = 0
	}
	for j := c.FanOff[net]; j < c.FanOff[net+1]; j++ {
		g := c.FanGate[j]
		te := ps.toEnd[c.Out[g]]
		if math.IsInf(te, -1) {
			continue
		}
		// Scan every pin of the reader connected to this net (a gate
		// may read the same net on several pins with different
		// delays); the CSR holds one entry per occurrence but always
		// names the first pin, so the scan keeps the bound exact.
		base := int(g) * ps.stride
		ni := int(c.NumIn[g])
		for pin := 0; pin < ni; pin++ {
			if c.In[base+pin] != net {
				continue
			}
			if t := ps.derate*pinDelayMax(c, base+pin) + te; t > best {
				best = t
			}
		}
	}
	return best
}

// backward relaxes one gate's output net (levels descending make every
// continuation it reads final).
//
//teva:hotpath
func (ps *passState) backward(gi int32) {
	out := ps.c.Out[gi]
	ps.toEnd[out] = ps.relax(out)
}

// analyze is the two-pass engine core. derate multiplies every cell delay
// (1 for the nominal corner; note x*1 is exact in IEEE arithmetic, so the
// nominal path is bit-identical to an underate-free walk).
func analyze(c *netlist.Compiled, clkToQ, setup, derate float64, cornerName string) *Report {
	clkToQ *= derate
	setup *= derate

	// Forward pass: worst arrival per net, levels ascending. A gate reads
	// only nets driven at lower levels (or inputs/constants) and writes
	// only its own output net.
	arrival := make([]float64, c.NumNets)
	for i := range arrival {
		arrival[i] = math.Inf(-1)
	}
	arrival[netlist.Const0] = math.Inf(-1) // constants never transition
	arrival[netlist.Const1] = math.Inf(-1)
	for _, in := range c.Inputs {
		arrival[in] = clkToQ
	}
	ps := &passState{c: c, stride: c.Stride, derate: derate, arrival: arrival}
	for l := 0; l < c.NumLevels; l++ {
		for _, gi := range c.Levels[c.LevelOff[l]:c.LevelOff[l+1]] {
			ps.forward(gi)
		}
	}

	// Backward pass: longest remaining delay from each net to any
	// endpoint, levels descending. A gate's fanout lives strictly above
	// its own level (a reader's level exceeds every driver's), so when
	// gate gi computes toEnd of its output net, every continuation it
	// reads is already final; it writes only its own output net.
	isOutput := make([]bool, c.NumNets)
	for _, out := range c.Outputs {
		isOutput[out] = true
	}
	toEnd := make([]float64, c.NumNets)
	for i := range toEnd {
		toEnd[i] = math.Inf(-1)
	}
	ps.isOutput = isOutput
	ps.toEnd = toEnd
	for l := c.NumLevels - 1; l >= 0; l-- {
		for _, gi := range c.Levels[c.LevelOff[l]:c.LevelOff[l+1]] {
			ps.backward(gi)
		}
	}
	// Primary inputs are driven by no gate; their continuations are all
	// gate outputs, final after the level sweep. Constants stay -Inf:
	// paths never launch from a constant net.
	for _, in := range c.Inputs {
		toEnd[in] = ps.relax(int32(in))
	}

	r := &Report{
		Netlist:       c.Name,
		Corner:        cornerName,
		Derate:        derate,
		EndpointDelay: make([]float64, len(c.Outputs)),
		arrival:       arrival,
		toEnd:         toEnd,
		c:             c,
		clkToQ:        clkToQ,
		setup:         setup,
	}
	for i, out := range c.Outputs {
		d := arrival[out]
		if math.IsInf(d, -1) {
			d = 0 // constant or input-fed-through endpoint
		} else {
			d += setup
		}
		r.EndpointDelay[i] = d
		if d > r.WorstDelay {
			r.WorstDelay = d
		}
	}
	return r
}

// Arrival returns the worst-case arrival time at a net (including
// clock-to-Q), or -Inf when the net is unreachable from any register
// output (constants, dead nets).
func (r *Report) Arrival(net netlist.NetID) float64 { return r.arrival[net] }

// Required returns the backward-pass required time at a net for a clock
// period: the latest arrival that still meets setup at every endpoint the
// net reaches. Nets that reach no endpoint have +Inf required time.
func (r *Report) Required(net netlist.NetID, clk float64) float64 {
	te := r.toEnd[net]
	if math.IsInf(te, -1) {
		return math.Inf(1)
	}
	return clk - r.setup - te
}

// PathDelay returns the delay of the longest register-to-register path
// through a net, clock-to-Q and setup included: Arrival plus the longest
// continuation to an endpoint plus setup. Nets outside any path
// (constants, nets that reach no endpoint) return -Inf.
func (r *Report) PathDelay(net netlist.NetID) float64 {
	a, te := r.arrival[net], r.toEnd[net]
	if math.IsInf(a, -1) || math.IsInf(te, -1) {
		return math.Inf(-1)
	}
	return a + te + r.setup
}

// NetSlack returns Required − Arrival at a net: the margin of the worst
// register-to-register path through it, clk − PathDelay. Nets outside
// any path have +Inf slack.
func (r *Report) NetSlack(net netlist.NetID, clk float64) float64 {
	return clk - r.PathDelay(net)
}

// WNS returns the worst negative slack at a clock period: clk −
// WorstDelay, negative when the circuit fails timing. (The name follows
// signoff convention; the value is positive when every path meets clk.)
func (r *Report) WNS(clk float64) float64 { return clk - r.WorstDelay }

// FailingEndpoints counts endpoints with negative slack at a clock period.
func (r *Report) FailingEndpoints(clk float64) int {
	n := 0
	for _, d := range r.EndpointDelay {
		if clk-d < 0 {
			n++
		}
	}
	return n
}

// ClockPeriod implements Eq. 1 over a set of stage reports: the max worst
// delay across all pipeline stages, optionally padded by a margin factor
// (1.0 = zero-margin signoff, as in the paper's "fastest CLK achieved").
// It panics on an empty report set — a misconfigured pipeline would
// otherwise silently sign off at a 0 ps clock.
func ClockPeriod(reports []*Report, margin float64) float64 {
	if len(reports) == 0 {
		panic("sta: ClockPeriod over an empty report set")
	}
	var clk float64
	for _, r := range reports {
		if r.WorstDelay > clk {
			clk = r.WorstDelay
		}
	}
	return clk * margin
}

// ---------------------------------------------------------------------------
// K-longest-path enumeration

type pathNode struct {
	net  netlist.NetID
	prev *pathNode
}

type searchItem struct {
	// bound = delaySoFar + toEnd(net): the exact best completion. For an
	// end item it is delaySoFar itself.
	bound      float64
	delaySoFar float64
	node       *pathNode
	// end marks the path that stops at node's net, an output: its bound
	// is its exact delay, so it is recorded when it pops.
	end bool
}

type searchHeap []searchItem

func (h searchHeap) Len() int           { return len(h) }
func (h searchHeap) Less(i, j int) bool { return h[i].bound > h[j].bound }
func (h searchHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *searchHeap) Push(x any)        { *h = append(*h, x.(searchItem)) }
func (h *searchHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TopPaths enumerates the k longest register-to-register paths in
// descending delay order using best-first search with an exact completion
// bound — the backward pass the report already carries, so enumeration
// shares one longest-distance-to-endpoint table with slack reporting
// instead of recomputing its own. The search is exact; a generous
// expansion budget guards against pathological path explosion and is
// reported via the truncated return.
func (r *Report) TopPaths(k int) (paths []Path, truncated bool) {
	return r.topPaths(k, math.Inf(-1))
}

// floorMargin widens topPaths' floor test by a relative margin far above
// the rounding gap between a bound (summed from the endpoint backwards)
// and the delay of a path it bounds (summed from the launch forwards).
const floorMargin = 1e-9

// topPaths is TopPaths restricted to paths no shorter than floor: the
// search stops once the best remaining bound, clock-to-Q and setup
// included, falls below it (by more than floorMargin). Every completion
// of a popped item is at most its bound, so no path of delay >= floor is
// skipped. truncated reports a budget exhausted before reaching k paths
// or the floor.
func (r *Report) topPaths(k int, floor float64) (paths []Path, truncated bool) {
	cut := floor - floorMargin*math.Abs(floor) - r.clkToQ - r.setup
	c := r.c
	isOutput := make([]bool, c.NumNets)
	for _, out := range c.Outputs {
		isOutput[out] = true
	}
	toEnd := r.toEnd
	stride := c.Stride

	h := &searchHeap{}
	for _, in := range c.Inputs {
		if math.IsInf(toEnd[in], -1) {
			continue
		}
		heap.Push(h, searchItem{
			bound:      toEnd[in],
			delaySoFar: 0,
			node:       &pathNode{net: in},
		})
	}

	budget := 400 * k
	for h.Len() > 0 && len(paths) < k && (*h)[0].bound >= cut {
		if budget--; budget < 0 {
			truncated = true
			break
		}
		it := heap.Pop(h).(searchItem)
		if it.end {
			paths = append(paths, r.materialize(it))
			continue
		}
		net := it.node.net
		// An output that also feeds gates bounds both the path ending
		// here and its continuations; the ending path waits in the heap
		// under its own, exact, bound.
		if isOutput[net] {
			heap.Push(h, searchItem{bound: it.delaySoFar, delaySoFar: it.delaySoFar, node: it.node, end: true})
		}
		for j := c.FanOff[net]; j < c.FanOff[net+1]; j++ {
			gid := c.FanGate[j]
			out := c.Out[gid]
			base := int(gid) * stride
			ni := int(c.NumIn[gid])
			for pin := 0; pin < ni; pin++ {
				if netlist.NetID(c.In[base+pin]) != net {
					continue
				}
				if math.IsInf(toEnd[out], -1) {
					continue
				}
				d := it.delaySoFar + r.Derate*pinDelayMax(c, base+pin)
				heap.Push(h, searchItem{
					bound:      d + toEnd[out],
					delaySoFar: d,
					node:       &pathNode{net: netlist.NetID(out), prev: it.node},
				})
			}
		}
	}
	return paths, truncated
}

// materialize converts a search item into a Path.
func (r *Report) materialize(it searchItem) Path {
	var nets []netlist.NetID
	for n := it.node; n != nil; n = n.prev {
		nets = append(nets, n.net)
	}
	// Reverse into launch-to-capture order.
	for i, j := 0, len(nets)-1; i < j; i, j = i+1, j-1 {
		nets[i], nets[j] = nets[j], nets[i]
	}
	unit := ""
	if d := r.c.Driver[it.node.net]; d >= 0 {
		unit = r.c.UnitName(d)
	}
	return Path{
		Delay:   r.clkToQ + it.delaySoFar + r.setup,
		Nets:    nets,
		Unit:    unit,
		Netlist: r.Netlist,
	}
}

// TopPathsAcross merges the k longest paths across multiple reports
// (e.g. all pipeline stages of all functional units), descending by
// delay; tied paths keep report order. Each report's search stops at the
// k-th best delay found in the reports before it: a shorter path there
// is beaten by k earlier ones, so the result equals merging every
// report's own top k. The truncated return is the OR of the per-report
// truncation flags: when set, at least one report hit its expansion
// budget before reaching k paths or that floor, so the merged tail may
// undercount that report's unit.
func TopPathsAcross(reports []*Report, k int) (all []Path, truncated bool) {
	var best []float64 // the k largest delays so far, ascending
	for _, r := range reports {
		floor := math.Inf(-1)
		if len(best) == k && k > 0 {
			floor = best[0]
		}
		p, t := r.topPaths(k, floor)
		truncated = truncated || t
		all = append(all, p...)
		for _, path := range p {
			best = append(best, path.Delay)
		}
		slices.Sort(best)
		best = best[max(0, len(best)-k):]
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Delay > all[j].Delay })
	if len(all) > k {
		all = all[:k]
	}
	return all, truncated
}

// UnitDistribution counts paths per functional-unit tag; the quantity
// plotted in Figure 4.
func UnitDistribution(paths []Path) map[string]int {
	dist := make(map[string]int, 8)
	for _, p := range paths {
		dist[p.Unit]++
	}
	return dist
}

func (p Path) String() string {
	return fmt.Sprintf("%s[%s] %.0fps via %d nets", p.Netlist, p.Unit, p.Delay, len(p.Nets))
}
