// Package timingsim simulates a netlist with annotated gate delays under a
// voltage corner. It is the "second instance" of the paper's dynamic
// timing analysis: the reduced-voltage gate-level simulation whose sampled
// outputs are compared with the golden run to detect timing errors.
//
// Three engines are provided, all running on the compiled flat IR
// (netlist.Compiled) with opcode dispatch:
//
//   - Exact: event-driven simulation with inertial delays. Captures the
//     value every net holds at the capture deadline, including glitches.
//   - Fast: single-pass levelized transition/arrival propagation. For a
//     late-arriving bit it assumes the previous-cycle value is captured
//     (the standard "old value" timing-error model) and ignores
//     glitch-induced wrong captures. ~10-50x faster than Exact and
//     validated against it in tests.
//   - WideFast: the Fast model for 64 transitions per circuit walk,
//     bit-exact against Fast per lane. It is the production engine;
//     Fast is kept only as its differential reference in tests.
package timingsim

import (
	"math"

	"teva/internal/netlist"
)

// Sample is the outcome of simulating one input transition.
type Sample struct {
	// Captured holds, per primary output (in netlist output order), the
	// value latched at the capture deadline.
	Captured []bool
	// Settled holds, per primary output, the final steady-state value
	// (what a nominal-speed circuit would produce).
	Settled []bool
	// Arrival holds, per primary output, the time the output reached its
	// final value (0 when it never switched).
	Arrival []float64
	// WorstArrival is the maximum over Arrival.
	WorstArrival float64
	// Violations counts outputs whose captured value differs from the
	// settled value.
	Violations int
	// Toggles counts gate-output transitions during the run (a dynamic
	// energy proxy; Exact counts every event, Fast counts changed gates).
	Toggles int64
	// EnergyFJ is the dynamic energy of those transitions (sum of the
	// toggled gates' per-transition energies), femtojoules.
	EnergyFJ float64
}

// Erroneous reports whether any output captured a wrong value.
func (s *Sample) Erroneous() bool { return s.Violations > 0 }

// Clone returns an independent deep copy of the sample. Runner.Run
// returns an engine-owned Sample that the next Run overwrites; callers
// that need to keep a result past the next Run must Clone it (the
// sampleretain teva-vet analyzer flags retained Run results).
func (s *Sample) Clone() *Sample {
	c := *s
	c.Captured = append([]bool(nil), s.Captured...)
	c.Settled = append([]bool(nil), s.Settled...)
	c.Arrival = append([]float64(nil), s.Arrival...)
	return &c
}

// Runner is a timing engine bound to one netlist and corner.
type Runner interface {
	// Run simulates the transition from the prev input vector to cur.
	// Inputs switch at inputArrival (the register clock-to-Q time);
	// capture happens at deadline (CLK minus setup). The returned Sample
	// is valid until the next Run call.
	Run(prev, cur []bool, inputArrival, deadline float64) *Sample
}

// ---------------------------------------------------------------------------
// Fast engine

// FastSim is the scalar levelized arrival-time engine. No production
// code calls it: it is the test-only differential reference that the
// wide engine (WideFastSim) and the STA bound are checked against, in
// this package and in sta, power and dta.
type FastSim struct {
	c       *netlist.Compiled
	scale   float64
	oldV    []bool
	newV    []bool
	changed []bool
	arrival []float64
	sample  Sample
}

// NewFast returns a fast engine for the compiled netlist with all gate
// delays multiplied by scale (the corner's delay inflation; 1.0 =
// nominal).
func NewFast(c *netlist.Compiled, scale float64) *FastSim {
	s := &FastSim{
		c:       c,
		scale:   scale,
		oldV:    make([]bool, c.NumNets),
		newV:    make([]bool, c.NumNets),
		changed: make([]bool, c.NumNets),
		arrival: make([]float64, c.NumNets),
	}
	s.oldV[netlist.Const1] = true
	s.newV[netlist.Const1] = true
	outs := len(c.Outputs)
	s.sample = Sample{
		Captured: make([]bool, outs),
		Settled:  make([]bool, outs),
		Arrival:  make([]float64, outs),
	}
	return s
}

// Run implements Runner.
func (s *FastSim) Run(prev, cur []bool, inputArrival, deadline float64) *Sample {
	c := s.c
	if len(prev) != len(c.Inputs) || len(cur) != len(c.Inputs) {
		panic("timingsim: input width mismatch")
	}
	for i, net := range c.Inputs {
		s.oldV[net] = prev[i]
		s.newV[net] = cur[i]
		s.changed[net] = prev[i] != cur[i]
		s.arrival[net] = inputArrival
	}
	var toggles int64
	var energy float64
	in, stride := c.In, c.Stride
	oldV, newV, changed := s.oldV, s.newV, s.changed
	for gi := 0; gi < c.NumGates; gi++ {
		base := gi * stride
		// Padded pins read Const0, which never changes and which every
		// opcode ignores beyond its arity, so the loads are unconditional.
		i0, i1, i2 := in[base], in[base+1], in[base+2]
		op := c.Op[gi]
		out := c.Out[gi]
		anyChanged := changed[i0] || changed[i1] || changed[i2]
		oldOut := op.Eval(oldV[i0], oldV[i1], oldV[i2])
		oldV[out] = oldOut
		if !anyChanged {
			newV[out] = oldOut
			changed[out] = false
			s.arrival[out] = 0
			continue
		}
		newOut := op.Eval(newV[i0], newV[i1], newV[i2])
		newV[out] = newOut
		if newOut == oldOut {
			changed[out] = false
			s.arrival[out] = 0
			continue
		}
		toggles++
		energy += c.Energy[gi]
		changed[out] = true
		worst := 0.0
		ni := int(c.NumIn[gi])
		for i := 0; i < ni; i++ {
			inNet := in[base+i]
			if !changed[inNet] {
				continue
			}
			var d float64
			if newOut {
				d = c.Rise[base+i]
			} else {
				d = c.Fall[base+i]
			}
			if t := s.arrival[inNet] + d*s.scale; t > worst {
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
	for i, net := range c.Outputs {
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
			sm.Captured[i] = s.oldV[net] // old-value capture
			sm.Violations++
		} else {
			sm.Captured[i] = settled
		}
	}
	return sm
}

// ---------------------------------------------------------------------------
// Exact engine

type event struct {
	time  float64
	seq   uint64 // global ordering tiebreak
	net   netlist.NetID
	value bool
	stamp uint32 // per-net validity stamp
}

// before is the heap ordering: earliest time first, global sequence number
// as the tiebreak. seq is unique per event, so the order is total and the
// pop sequence is independent of heap internals.
func (e event) before(o event) bool {
	//teva:allow floateq -- tie-break comparator: equal times fall through to seq
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// eventHeap is a typed binary min-heap of events. Unlike container/heap
// it moves concrete values — no interface boxing, so pushing an event
// allocates nothing once the backing array has grown to the run's
// high-water mark (it is reset with h = h[:0] between runs and its
// capacity reused).
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && q[r].before(q[kid]) {
			kid = r
		}
		if !q[kid].before(q[i]) {
			break
		}
		q[i], q[kid] = q[kid], q[i]
		i = kid
	}
	*h = q
	return top
}

// ExactSim is the event-driven engine with inertial delays.
type ExactSim struct {
	c          *netlist.Compiled
	scale      float64
	values     []bool
	atDeadline []bool
	lastChange []float64
	stamp      []uint32
	heap       eventHeap
	seq        uint64
	sample     Sample
}

// NewExact returns an exact engine for the compiled netlist at the given
// delay scale.
func NewExact(c *netlist.Compiled, scale float64) *ExactSim {
	s := &ExactSim{
		c:          c,
		scale:      scale,
		values:     make([]bool, c.NumNets),
		atDeadline: make([]bool, c.NumNets),
		lastChange: make([]float64, c.NumNets),
		stamp:      make([]uint32, c.NumNets),
	}
	outs := len(c.Outputs)
	s.sample = Sample{
		Captured: make([]bool, outs),
		Settled:  make([]bool, outs),
		Arrival:  make([]float64, outs),
	}
	return s
}

// settle evaluates the netlist functionally into values (steady state for
// the prev vector).
func (s *ExactSim) settle(inputs []bool) {
	c := s.c
	s.values[netlist.Const0] = false
	s.values[netlist.Const1] = true
	for i, net := range c.Inputs {
		s.values[net] = inputs[i]
	}
	vals := s.values
	in, stride := c.In, c.Stride
	for gi := 0; gi < c.NumGates; gi++ {
		base := gi * stride
		vals[c.Out[gi]] = c.Op[gi].Eval(vals[in[base]], vals[in[base+1]], vals[in[base+2]])
	}
}

// scheduleGate re-evaluates gate gi at time t following a change on one of
// its inputs and schedules the resulting output event (inertial rule: a
// newer evaluation supersedes any pending event on the output).
func (s *ExactSim) scheduleGate(gi, changedPin int32, t float64) {
	c := s.c
	base := int(gi) * c.Stride
	in := c.In
	v := c.Op[gi].Eval(s.values[in[base]], s.values[in[base+1]], s.values[in[base+2]])
	out := netlist.NetID(c.Out[gi])
	// Supersede any pending event for this net.
	s.stamp[out]++
	if v == s.values[out] {
		return // pulse filtered (or no change)
	}
	var d float64
	if v {
		d = c.Rise[base+int(changedPin)]
	} else {
		d = c.Fall[base+int(changedPin)]
	}
	s.seq++
	s.heap.push(event{
		time:  t + d*s.scale,
		seq:   s.seq,
		net:   out,
		value: v,
		stamp: s.stamp[out],
	})
}

// Run implements Runner.
func (s *ExactSim) Run(prev, cur []bool, inputArrival, deadline float64) *Sample {
	c := s.c
	if len(prev) != len(c.Inputs) || len(cur) != len(c.Inputs) {
		panic("timingsim: input width mismatch")
	}
	s.settle(prev)
	for i := range s.lastChange {
		s.lastChange[i] = 0
		s.stamp[i] = 0
	}
	s.heap = s.heap[:0]
	s.seq = 0

	// Primary-input transitions at inputArrival.
	for i, net := range c.Inputs {
		if cur[i] != prev[i] {
			s.seq++
			s.stamp[net]++
			s.heap.push(event{
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
	for len(s.heap) > 0 {
		e := s.heap.pop()
		if e.stamp != s.stamp[e.net] {
			continue // superseded
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
		if d := c.Driver[e.net]; d >= 0 {
			toggles++ // count gate-output transitions only, as Fast does
			energy += c.Energy[d]
		}
		for j := c.FanOff[e.net]; j < c.FanOff[e.net+1]; j++ {
			s.scheduleGate(c.FanGate[j], c.FanPin[j], e.time)
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
	for i, net := range c.Outputs {
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

// MaxDeadline is a deadline so large no path misses it; used to obtain
// pure settling behaviour.
const MaxDeadline = math.MaxFloat64 / 4
