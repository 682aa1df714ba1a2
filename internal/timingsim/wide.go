package timingsim

import (
	"math/bits"

	"teva/internal/cell"
	"teva/internal/netlist"
)

// WideSample is the outcome of one WideFastSim run: up to 64 independent
// input transitions timed by a single circuit walk. Lane L of every word
// (bit L, LSB = lane 0) is the result of transition L; the per-lane
// arrays mirror the scalar Sample fields exactly, so
// WideFastSim.LaneSample can reconstruct the scalar engine's Sample for
// any lane bit for bit.
type WideSample struct {
	// Captured holds, per primary output (netlist output order), the
	// 64-lane word of values latched at the capture deadline.
	Captured []uint64
	// Settled holds, per primary output, the steady-state words.
	Settled []uint64
	// WorstArrival is each lane's maximum output arrival time.
	WorstArrival [64]float64
	// Violations counts, per lane, outputs whose captured value differs
	// from the settled value.
	Violations [64]int
	// Toggles counts, per lane, gate-output transitions.
	Toggles [64]int64
	// EnergyFJ is each lane's dynamic switching energy, femtojoules.
	EnergyFJ [64]float64
}

// Erroneous reports whether the given lane captured any wrong value.
func (s *WideSample) Erroneous(lane int) bool { return s.Violations[lane] > 0 }

// Clone returns an independent deep copy. WideFastSim.Run returns an
// engine-owned sample that the next Run overwrites; callers that need to
// keep a result past the next Run must Clone it (the sampleretain
// teva-vet analyzer flags retained Run results).
func (s *WideSample) Clone() *WideSample {
	c := *s
	c.Captured = append([]uint64(nil), s.Captured...)
	c.Settled = append([]uint64(nil), s.Settled...)
	return &c
}

// WideFastSim is the 64-lane counterpart of FastSim: one levelized walk
// over the compiled IR times up to 64 operand transitions at once. Per-net
// old/new/changed values are bit-parallel uint64 words (like
// logicsim.WideSim) and arrival times live in a lane-major [net*64+lane]
// structure-of-arrays; the per-lane float work runs only for lanes whose
// gate output actually toggled, so the fixed cost of walking the circuit
// is paid once per 64 transitions instead of once per transition.
//
// Unpruned, the engine is bit-exact against FastSim: for every lane,
// Captured, Settled, arrivals, violation/toggle counts and energies equal
// a scalar FastSim run of that lane's transition (enforced by
// differential tests). Prune trades the arrival and energy diagnostics
// for speed and keeps the captures exact.
// Lanes are independent; callers that drive fewer than 64 lanes should
// make the unused lanes transition-free (prev bit == cur bit) so they cost
// nothing.
type WideFastSim struct {
	c     *netlist.Compiled
	scale float64
	// riseS/fallS are the stride-padded per-pin delays pre-multiplied by
	// scale, the same d*scale product FastSim forms per lookup.
	riseS, fallS []float64
	oldW         []uint64
	newW         []uint64
	changedW     []uint64
	// arr is the lane-major arrival SoA: arr[net*64+lane]. Slots are only
	// valid while the matching changedW bit is set; stale lanes are never
	// read.
	arr []float64
	// track, when non-nil, is the pruned engine's tracked-gate bitset
	// (see Prune).
	track []uint64
	// seeded lists the primary inputs whose arrival rows Run seeds: all
	// of them unpruned, and pruned only those a tracked gate or an
	// output reads (no other reader looks at an arrival row).
	seeded []netlist.NetID
	sample WideSample
}

// WideScratch is the per-net working storage of a WideFastSim. Engines
// that never run concurrently (e.g. one dta.Analyzer's per-stage engines,
// which execute strictly cycle by cycle) can share one scratch sized for
// the largest netlist: Run leaves no state behind that a later Run — its
// own or another sharing engine's — reads, so sharing only saves the
// allocation, not determinism.
type WideScratch struct {
	oldW, newW, changedW []uint64
	arr                  []float64
}

// NewWideScratch returns working storage for netlists of up to maxNets
// nets.
func NewWideScratch(maxNets int) *WideScratch {
	ws := &WideScratch{
		oldW:     make([]uint64, maxNets),
		newW:     make([]uint64, maxNets),
		changedW: make([]uint64, maxNets),
		arr:      make([]float64, maxNets*64),
	}
	// The constant nets sit at the same indices in every compiled
	// netlist, no engine ever writes them, and Const0's all-zero words
	// are the allocation's zero value — so the constant rows are set once
	// here, not per Run.
	ws.oldW[netlist.Const1] = ^uint64(0)
	ws.newW[netlist.Const1] = ^uint64(0)
	return ws
}

// NewWideFast returns a 64-lane fast engine for the compiled netlist with
// all gate delays multiplied by scale.
func NewWideFast(c *netlist.Compiled, scale float64) *WideFastSim {
	return NewWideFastShared(c, scale, NewWideScratch(c.NumNets))
}

// NewWideFastShared is NewWideFast on shared working storage (which must
// span at least c.NumNets nets). Engines sharing a scratch must not run
// concurrently.
func NewWideFastShared(c *netlist.Compiled, scale float64, ws *WideScratch) *WideFastSim {
	s := &WideFastSim{
		c:        c,
		scale:    scale,
		riseS:    make([]float64, len(c.Rise)),
		fallS:    make([]float64, len(c.Fall)),
		oldW:     ws.oldW[:c.NumNets],
		newW:     ws.newW[:c.NumNets],
		changedW: ws.changedW[:c.NumNets],
		arr:      ws.arr[:c.NumNets*64],
		seeded:   c.Inputs,
	}
	for i, d := range c.Rise {
		s.riseS[i] = d * scale
	}
	for i, d := range c.Fall {
		s.fallS[i] = d * scale
	}
	outs := len(c.Outputs)
	s.sample = WideSample{
		Captured: make([]uint64, outs),
		Settled:  make([]uint64, outs),
	}
	return s
}

// Prune restricts the engine's arrival work to the tracked gates: bit
// gi%64 of track[gi/64] is set for every gate gi whose output net lies on
// a path that can miss the deadline. An untracked gate still computes its
// logic values, but its changed mask is stored as zero, so it seeds no
// arrival row, no reader takes a candidate from it, and as an endpoint it
// captures its settled value. A primary input's arrival row is seeded
// only when a tracked gate or an output reads it.
//
// When every path through an untracked gate meets the deadline, which is
// what the caller's static bound must guarantee, an endpoint can only be
// late through a fully tracked path, which is timed exactly: Captured,
// Settled and Violations equal the unpruned engine's. Arrivals are lower
// bounds (exact at late endpoints; LaneArrival reads 0 at an untracked
// one), and a pruned engine skips toggle and energy accounting, so
// Toggles and EnergyFJ read 0. A nil track restores the full engine.
func (s *WideFastSim) Prune(track []uint64) {
	if track != nil && len(track) < (s.c.NumGates+63)/64 {
		panic("timingsim: tracked-gate bitset shorter than the netlist")
	}
	s.track = track
	c := s.c
	if track == nil {
		s.seeded = c.Inputs
		return
	}
	read := make([]bool, c.NumNets)
	for gi := 0; gi < c.NumGates; gi++ {
		if track[gi>>6]>>uint(gi&63)&1 == 1 {
			base := gi * c.Stride
			for _, in := range c.In[base : base+int(c.NumIn[gi])] {
				read[in] = true
			}
		}
	}
	for _, out := range c.Outputs {
		read[out] = true
	}
	s.seeded = nil
	for _, in := range c.Inputs {
		if read[in] {
			s.seeded = append(s.seeded, in)
		}
	}
}

// Run times the transitions from the prev input words to cur (one word
// per primary input, lanes packed LSB = lane 0). Inputs switch at
// inputArrival; capture happens at deadline. The returned WideSample is
// valid until the next Run call.
//
//teva:hotpath
func (s *WideFastSim) Run(prev, cur []uint64, inputArrival, deadline float64) *WideSample {
	c := s.c
	if len(prev) != len(c.Inputs) || len(cur) != len(c.Inputs) {
		panic("timingsim: input width mismatch")
	}
	arr := s.arr
	oldW, newW, changedW := s.oldW, s.newW, s.changedW
	// seedRow is one net's worth of arrivals all at inputArrival; a single
	// 512-byte copy initializes a whole output row (cheaper than storing
	// per toggled lane, and harmless for untoggled lanes — they are never
	// read while their changed bit is clear).
	var seedRow [64]float64
	for l := range seedRow {
		seedRow[l] = inputArrival
	}
	for i, net := range c.Inputs {
		oldW[net] = prev[i]
		newW[net] = cur[i]
		changedW[net] = prev[i] ^ cur[i]
	}
	for _, net := range s.seeded {
		*(*[64]float64)(arr[int(net)*64:]) = seedRow
	}
	sm := &s.sample
	for l := range sm.WorstArrival {
		sm.WorstArrival[l] = 0
		sm.Violations[l] = 0
		sm.Toggles[l] = 0
		sm.EnergyFJ[l] = 0
	}

	in, stride := c.In, c.Stride
	track := s.track
	for gi := 0; gi < c.NumGates; gi++ {
		base := gi * stride
		i0, i1, i2 := in[base], in[base+1], in[base+2]
		a0, b0, c0 := oldW[i0], oldW[i1], oldW[i2]
		a1, b1, c1 := newW[i0], newW[i1], newW[i2]
		var oldOut, newOut uint64
		switch c.Op[gi] {
		case cell.OpBuf:
			oldOut, newOut = a0, a1
		case cell.OpInv:
			oldOut, newOut = ^a0, ^a1
		case cell.OpAnd2:
			oldOut, newOut = a0&b0, a1&b1
		case cell.OpOr2:
			oldOut, newOut = a0|b0, a1|b1
		case cell.OpNand2:
			oldOut, newOut = ^(a0 & b0), ^(a1 & b1)
		case cell.OpNor2:
			oldOut, newOut = ^(a0 | b0), ^(a1 | b1)
		case cell.OpXor2:
			oldOut, newOut = a0^b0, a1^b1
		case cell.OpXnor2:
			oldOut, newOut = ^(a0 ^ b0), ^(a1 ^ b1)
		case cell.OpMux2:
			oldOut, newOut = (a0&^c0)|(b0&c0), (a1&^c1)|(b1&c1)
		case cell.OpAoi21:
			oldOut, newOut = ^((a0 & b0) | c0), ^((a1 & b1) | c1)
		case cell.OpOai21:
			oldOut, newOut = ^((a0 | b0) & c0), ^((a1 | b1) & c1)
		case cell.OpAnd3:
			oldOut, newOut = a0&b0&c0, a1&b1&c1
		case cell.OpOr3:
			oldOut, newOut = a0|b0|c0, a1|b1|c1
		case cell.OpNand3:
			oldOut, newOut = ^(a0 & b0 & c0), ^(a1 & b1 & c1)
		case cell.OpNor3:
			oldOut, newOut = ^(a0 | b0 | c0), ^(a1 | b1 | c1)
		case cell.OpXor3:
			oldOut, newOut = a0^b0^c0, a1^b1^c1
		case cell.OpMaj3:
			oldOut, newOut = (a0&b0)|(c0&(a0^b0)), (a1&b1)|(c1&(a1^b1))
		default:
			panic("timingsim: invalid opcode " + c.Op[gi].String())
		}
		out := c.Out[gi]
		oldW[out] = oldOut
		newW[out] = newOut
		toggled := oldOut ^ newOut
		if track != nil && track[gi>>6]>>uint(gi&63)&1 == 0 {
			// Untracked: no path through this gate can be late, so its
			// arrival is never needed (see Prune).
			toggled = 0
		}
		changedW[out] = toggled
		if toggled == 0 {
			continue
		}
		ob := (*[64]float64)(arr[int(out)*64:])
		// Seed the whole output row's arrivals with inputArrival. Any
		// changed pin's candidate is arr+d ≥ inputArrival, so the running
		// max ends at the pins' worst when one contributed and at
		// inputArrival when none did — exactly FastSim's `worst == 0 →
		// inputArrival` fallback, without the per-lane test.
		*ob = seedRow
		if track == nil {
			energy := c.Energy[gi]
			for m := toggled; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m) & 63
				sm.Toggles[lane]++
				sm.EnergyFJ[lane] += energy
			}
		}
		// Rising and falling lanes take different pin delays; splitting
		// the toggled mask keeps each inner loop's delay a constant and
		// restricts it to lanes where the pin actually switched — no
		// per-lane masking or rise/fall select left.
		riseM := toggled & newOut
		fallM := toggled &^ newOut
		ni := int(c.NumIn[gi])
		for p := 0; p < ni; p++ {
			inNet := int(in[base+p])
			ch := changedW[inNet]
			if ch == 0 {
				continue
			}
			ab := (*[64]float64)(arr[inNet*64:])
			if rm := riseM & ch; rm != 0 {
				d := s.riseS[base+p]
				for m := rm; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros64(m) & 63
					ob[lane] = max(ob[lane], ab[lane]+d)
				}
			}
			if fm := fallM & ch; fm != 0 {
				d := s.fallS[base+p]
				for m := fm; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros64(m) & 63
					ob[lane] = max(ob[lane], ab[lane]+d)
				}
			}
		}
	}

	for oi, net := range c.Outputs {
		settled := newW[net]
		sm.Settled[oi] = settled
		captured := settled
		if ch := changedW[net]; ch != 0 {
			base := int(net) * 64
			var late uint64
			for m := ch; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				a := arr[base+lane]
				if a > sm.WorstArrival[lane] {
					sm.WorstArrival[lane] = a
				}
				if a > deadline {
					late |= 1 << uint(lane)
					sm.Violations[lane]++
				}
			}
			// Late lanes latch the previous-cycle value (the old-value
			// capture model), everything else the settled value.
			captured = settled&^late | oldW[net]&late
		}
		sm.Captured[oi] = captured
	}
	return sm
}

// ChainLanes turns the 64 lanes of cur into n consecutive transitions of
// one serial input stream. It sets prev so that lane L's previous input
// is lane L-1's current one and lane 0's is carry's bit 0 (the stream's
// input before this batch), makes lanes n and up transition-free (they
// then cost and record nothing), and advances carry to lane n-1's input.
func ChainLanes(prev, cur, carry []uint64, n int) {
	active := ^uint64(0) >> uint(64-n)
	for j, cw := range cur {
		pw := cw<<1 | carry[j]
		cw = cw&active | pw&^active
		cur[j] = cw
		prev[j] = pw
		carry[j] = cw >> uint(n-1) & 1
	}
}

// LaneArrival returns output oi's arrival time in the given lane after
// Run (0 when the output never switched), matching Sample.Arrival[oi] of
// a scalar run of that lane.
func (s *WideFastSim) LaneArrival(oi, lane int) float64 {
	net := s.c.Outputs[oi]
	if s.changedW[net]>>uint(lane)&1 == 0 {
		return 0
	}
	return s.arr[int(net)*64+lane]
}

// LaneSample reconstructs the scalar Sample of one lane into dst
// (allocating when dst is nil), for differential testing and for callers
// that need a scalar view of a single lane. Valid until the next Run.
func (s *WideFastSim) LaneSample(lane int, dst *Sample) *Sample {
	outs := len(s.c.Outputs)
	if dst == nil {
		dst = &Sample{}
	}
	if len(dst.Captured) != outs {
		dst.Captured = make([]bool, outs)
		dst.Settled = make([]bool, outs)
		dst.Arrival = make([]float64, outs)
	}
	sm := &s.sample
	for oi := range s.c.Outputs {
		dst.Captured[oi] = sm.Captured[oi]>>uint(lane)&1 == 1
		dst.Settled[oi] = sm.Settled[oi]>>uint(lane)&1 == 1
		dst.Arrival[oi] = s.LaneArrival(oi, lane)
	}
	dst.WorstArrival = sm.WorstArrival[lane]
	dst.Violations = sm.Violations[lane]
	dst.Toggles = sm.Toggles[lane]
	dst.EnergyFJ = sm.EnergyFJ[lane]
	return dst
}
