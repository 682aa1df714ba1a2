// Package dta implements dynamic timing analysis (Section III-A of the
// paper): two simulation instances of the gate-level FPU run in parallel —
// a nominal-voltage golden instance (zero-delay functional) and a
// reduced-voltage instance (gate delays inflated by the alpha-power
// corner) — and each instruction's destination-register outputs are
// XOR-compared bit by bit to yield timing-error bitmasks.
//
// The undervolted instance models the pipeline faithfully: every stage's
// inputs transition from the values the stage's input register held on the
// previous cycle (the previous instruction in that stage, or the previous
// iteration for the divide recurrence), and erroneously captured values
// propagate into downstream stages, so multi-stage error interaction is
// captured.
package dta

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"teva/internal/fpu"
	"teva/internal/guard"
	"teva/internal/logicsim"
	"teva/internal/obs"
	"teva/internal/timingsim"
)

// Record is the DTA outcome for one executed instruction.
type Record struct {
	// A, B are the operand encodings.
	A, B uint64
	// Golden is the architecturally correct result.
	Golden uint64
	// Faulty is the result captured by the undervolted instance.
	Faulty uint64
	// Mask is Golden XOR Faulty: set bits are timing-corrupted output
	// bits. Zero means no timing error manifested.
	Mask uint64
	// MaxArrivalPS is the worst (scaled) signal arrival observed in any
	// stage while executing this instruction, a dynamic-timing-slack
	// diagnostic. Exact with Full detail and on the exact engine; the
	// pruned wide engine (Outcome detail) times only paths that can be
	// late, so there it is exact for an erroneous instruction and a lower
	// bound otherwise.
	MaxArrivalPS float64
	// EnergyFJ is the undervolted instance's switching energy, fJ. The
	// pruned wide engine (Outcome detail) does no energy accounting and
	// leaves it 0; ask for Full detail to get it.
	EnergyFJ float64
}

// Erroneous reports whether the instruction suffered a timing error.
func (r Record) Erroneous() bool { return r.Mask != 0 }

// Pair is one operand pair for the analyzed instruction type.
type Pair struct{ A, B uint64 }

// Engine selects the reduced-voltage timing engine. The zero value is
// EngineWide, the production engine; EngineExact is the glitch-accurate
// ModelSim substitute, which can capture different values, so the choice
// is a fidelity knob.
type Engine uint8

const (
	// EngineWide is the 64-lane levelized engine: one circuit walk per
	// pipeline cycle times up to 64 consecutive instructions. The default.
	EngineWide Engine = iota
	// EngineExact is the event-driven engine with inertial delays and
	// glitch-accurate captures — the slow reference. Glitch handling is
	// inherently serial (event order couples lanes), so it has no wide
	// variant.
	EngineExact
)

var engineNames = map[Engine]string{
	EngineWide:  "wide",
	EngineExact: "exact",
}

func (e Engine) String() string {
	if n, ok := engineNames[e]; ok {
		return n
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// Exact reports whether the engine models glitch-accurate captures. It is
// also the provenance bit for cached DTA summaries.
func (e Engine) Exact() bool { return e == EngineExact }

// ParseEngine maps a CLI flag value ("wide", "exact") to an Engine.
func ParseEngine(s string) (Engine, error) {
	for e, n := range engineNames {
		if n == s {
			return e, nil
		}
	}
	return EngineWide, fmt.Errorf("dta: unknown timing engine %q (wide, exact)", s)
}

// Analyzer runs DTA for one instruction type at one voltage corner.
type Analyzer struct {
	p     *fpu.Pipeline
	clk   float64
	scale float64
	eng   Engine
	// Per-cycle (stage-repeat expanded) engines and state. The golden
	// instance runs on the 64-wide bit-parallel engine: one circuit walk
	// per cycle evaluates up to 64 operand pairs. Every engine shares the
	// stage's cached compiled IR, so parallel shards re-derive nothing.
	golden  []*logicsim.WideSim
	stages  []*fpu.Stage
	wordBuf [][]uint64 // 64-lane words per cycle boundary (golden + wide faulty)
	// Scalar faulty path (EngineExact). All buffers are preallocated: one
	// undervolted instruction allocates nothing.
	timing []timingsim.Runner
	prevIn [][]bool // faulty-domain previous input per expanded cycle
	curOut [][]bool // faulty-domain captured output per expanded cycle
	inBuf  []bool   // rank-0 input vector, reused per pair
	// Wide faulty path (EngineWide): the undervolted instance also runs
	// 64 lanes per walk. Lane L's previous input is lane L-1's current
	// one (consecutive instructions), so the per-cycle transition words
	// are the current words shifted up one lane; carry holds the last
	// analyzed instruction's input bits per cycle (the lane-0 carry-in),
	// which replays the exact serial history across batch boundaries.
	wtiming []*timingsim.WideFastSim
	carry   [][]uint64 // per cycle, per input net: previous batch's last lane (bit 0)
	// noLate marks a pruned wide analyzer at a scale where no endpoint
	// can be late (see noneLate): it builds no timing engines, and the
	// undervolted instance captures the golden values in every cycle.
	noLate    bool
	widePrev  []uint64  // lane-shifted transition scratch, max stage width
	warmPairs [1]Pair   // scratch for Warm's single-lane batch
	warmRec   [1]Record // scratch for Warm's discarded record
	haveHot   bool
}

// New returns an analyzer for the op's pipeline on the given FPU with
// every gate delay inflated by scale, timed by eng, filling the Record
// fields detail selects. A voltage-reduction level maps to its scale
// through vscale.Model.ScaleFor; the other delay-increase sources of the
// paper's Section VI (overclocking, temperature, aging — see
// vscale.StressCorner) reuse the same path.
func New(f *fpu.FPU, op fpu.Op, scale float64, eng Engine, detail Detail) *Analyzer {
	p := f.Pipeline(op)
	a := &Analyzer{p: p, clk: f.CLK, scale: scale, eng: eng}
	// The golden engines run strictly cycle by cycle and keep no state
	// across Runs, so stage repeats share one engine per distinct stage.
	gByStage := make(map[*fpu.Stage]*logicsim.WideSim, len(p.Stages))
	for _, s := range p.Stages {
		gByStage[s] = logicsim.NewWide(s.N.Compiled())
	}
	maxIn := 0
	if eng == EngineWide {
		// Stage repeats rerun the same circuit, and the analyzer runs its
		// cycles strictly in order, so one engine per distinct stage on
		// one shared scratch (sized for the widest netlist) serves every
		// expanded cycle. Per-cycle state (the lane-shift carries) stays
		// outside the engines. With Outcome detail each engine times only
		// its stage's tracked gates at this scale.
		var tracked [][]uint64
		if detail == Outcome {
			tracked = TrackedGates(f, op, scale)
			a.noLate = noneLate(f, op, tracked, scale)
		}
		var byStage map[*fpu.Stage]*timingsim.WideFastSim
		if !a.noLate {
			maxNets := 0
			for _, s := range p.Stages {
				maxNets = max(maxNets, s.N.Compiled().NumNets)
			}
			ws := timingsim.NewWideScratch(maxNets)
			byStage = make(map[*fpu.Stage]*timingsim.WideFastSim, len(p.Stages))
			for i, s := range p.Stages {
				e := timingsim.NewWideFastShared(s.N.Compiled(), scale, ws)
				if tracked != nil {
					e.Prune(tracked[i])
				}
				byStage[s] = e
			}
		}
		for _, s := range p.Stages {
			ins := len(s.N.Inputs())
			if ins > maxIn {
				maxIn = ins
			}
			for r := 0; r < s.Repeat; r++ {
				a.stages = append(a.stages, s)
				a.golden = append(a.golden, gByStage[s])
				if byStage != nil {
					a.wtiming = append(a.wtiming, byStage[s])
				}
				a.carry = append(a.carry, make([]uint64, ins))
				a.wordBuf = append(a.wordBuf, make([]uint64, ins))
			}
		}
	} else {
		for _, s := range p.Stages {
			c := s.N.Compiled()
			ins := len(s.N.Inputs())
			if ins > maxIn {
				maxIn = ins
			}
			for r := 0; r < s.Repeat; r++ {
				a.stages = append(a.stages, s)
				a.golden = append(a.golden, gByStage[s])
				a.timing = append(a.timing, timingsim.NewExact(c, scale))
				a.prevIn = append(a.prevIn, make([]bool, ins))
				a.curOut = append(a.curOut, make([]bool, len(s.N.Outputs())))
				a.wordBuf = append(a.wordBuf, make([]uint64, ins))
			}
		}
	}
	last := a.stages[len(a.stages)-1]
	a.wordBuf = append(a.wordBuf, make([]uint64, len(last.N.Outputs())))
	if eng == EngineWide {
		a.widePrev = make([]uint64, maxIn)
	} else {
		a.inBuf = make([]bool, len(a.stages[0].N.Inputs()))
	}
	return a
}

// Reset returns the analyzer to its just-constructed state: cold history,
// zero lane-shift carries, zero scalar previous-input vectors. A reset
// analyzer produces byte-identical records to a freshly built one, which
// is what lets AnalyzeStream pool analyzers across calls.
func (a *Analyzer) Reset() {
	a.haveHot = false
	for _, c := range a.carry {
		clear(c)
	}
	for _, p := range a.prevIn {
		clear(p)
	}
}

// poolKey identifies one analyzer configuration inside an FPU's scratch
// cache. Unexported so no other package's scratch entries can collide.
type poolKey struct {
	op     fpu.Op
	scale  float64
	eng    Engine
	detail Detail
}

// getAnalyzer fetches a pooled analyzer for the configuration (resetting
// it) or builds a fresh one. Engine construction is ~1MB of arrival/lane
// buffers per analyzer; characterization sweeps call AnalyzeStream
// hundreds of times per FPU, so pooling keeps the steady state
// allocation-free. The pool lives on the FPU so retired designs are
// collectable.
func getAnalyzer(f *fpu.FPU, op fpu.Op, scale float64, eng Engine, detail Detail) (*Analyzer, *sync.Pool) {
	pi, _ := f.Scratch().LoadOrStore(poolKey{op, scale, eng, detail}, &sync.Pool{})
	pool := pi.(*sync.Pool)
	if v := pool.Get(); v != nil {
		a := v.(*Analyzer)
		a.Reset()
		return a, pool
	}
	return New(f, op, scale, eng, detail), pool
}

// Op returns the analyzed instruction.
func (a *Analyzer) Op() fpu.Op { return a.p.Op }

// Scale returns the corner's delay inflation.
func (a *Analyzer) Scale() float64 { return a.scale }

// Warm primes the pipeline history with an operand pair without recording
// a result. Analyze warms automatically with its first pair when the
// analyzer is cold.
func (a *Analyzer) Warm(pair Pair) {
	if a.eng == EngineWide {
		a.warmPairs[0] = pair
		a.packBatch(a.warmPairs[:])
		if a.noLate {
			a.goldenBatch(a.warmPairs[:], a.warmRec[:])
		}
		a.faultyBatch(a.warmPairs[:], a.warmRec[:])
		return
	}
	a.faultyStep(pair)
}

// Analyze runs one instruction through both instances and returns its
// record. Consecutive calls model back-to-back instructions: each stage's
// input transition is from the previous call's values.
func (a *Analyzer) Analyze(pair Pair) Record {
	var recs [1]Record
	a.AnalyzeBatch([]Pair{pair}, recs[:])
	return recs[0]
}

// AnalyzeBatch analyzes consecutive instructions into recs (len(recs)
// must equal len(pairs)). The golden instance evaluates 64 pairs per
// circuit walk; the undervolted instance replays the same serial
// transition history a pair-at-a-time loop would, so the records are
// identical to repeated Analyze calls.
//
// This is the DTA stream's per-instruction engine loop: AnalyzeStream
// shards call it for every 64-pair window of the workload, so it and
// everything it reaches must not allocate in steady state (the
// AllocsPerRun tests measure it; the hotalloc analyzer proves it).
//
//teva:hotpath
func (a *Analyzer) AnalyzeBatch(pairs []Pair, recs []Record) {
	if len(pairs) != len(recs) {
		panic("dta: AnalyzeBatch length mismatch")
	}
	if len(pairs) == 0 {
		return
	}
	if !a.haveHot {
		a.Warm(pairs[0])
	}
	for lo := 0; lo < len(pairs); lo += 64 {
		hi := lo + 64
		if hi > len(pairs) {
			hi = len(pairs)
		}
		if a.eng == EngineWide {
			// One packing serves both instances: goldenBatch only reads
			// the rank-0 words, faultyBatch consumes (and then clobbers)
			// them afterwards.
			a.packBatch(pairs[lo:hi])
			a.goldenBatch(pairs[lo:hi], recs[lo:hi])
			a.faultyBatch(pairs[lo:hi], recs[lo:hi])
			for i := lo; i < hi; i++ {
				rec := &recs[i]
				rec.A, rec.B = pairs[i].A, pairs[i].B
				rec.Mask = rec.Golden ^ rec.Faulty
			}
			continue
		}
		a.goldenBatch(pairs[lo:hi], recs[lo:hi])
		for i := lo; i < hi; i++ {
			rec := &recs[i]
			rec.A, rec.B = pairs[i].A, pairs[i].B
			rec.Faulty, rec.MaxArrivalPS, rec.EnergyFJ = a.faultyStep(pairs[i])
			rec.Mask = rec.Golden ^ rec.Faulty
		}
	}
}

// packBatch packs the pairs' operand encodings into the rank-0 lane words
// (wordBuf[0]) with one 64x64 bit transpose per operand, lanes beyond
// len(pairs) zero.
func (a *Analyzer) packBatch(pairs []Pair) {
	op := a.p.Op
	w := op.OperandWidth()
	words := a.wordBuf[0]
	var rows [64]uint64
	for lane, pair := range pairs {
		rows[lane] = pair.A
	}
	logicsim.Transpose64(&rows)
	copy(words[:w], rows[:w])
	packed := w
	if op.NumOperands() == 2 {
		for lane := range rows {
			if lane < len(pairs) {
				rows[lane] = pairs[lane].B
			} else {
				rows[lane] = 0
			}
		}
		logicsim.Transpose64(&rows)
		copy(words[w:2*w], rows[:w])
		packed = 2 * w
	}
	for i := packed; i < len(words); i++ {
		words[i] = 0
	}
}

// goldenBatch runs the golden (nominal, zero-delay) instance for up to 64
// packed pairs (see packBatch) in one 64-wide walk per pipeline cycle,
// filling recs[i].Golden.
func (a *Analyzer) goldenBatch(pairs []Pair, recs []Record) {
	if a.eng != EngineWide {
		a.packBatch(pairs)
	}
	for ci, g := range a.golden {
		g.Run(a.wordBuf[ci])
		g.Outputs(a.wordBuf[ci+1])
	}
	final := a.wordBuf[len(a.wordBuf)-1]
	rw := a.p.Op.ResultWidth()
	var rows [64]uint64
	copy(rows[:], final[:rw])
	logicsim.Transpose64(&rows)
	for lane := range pairs {
		recs[lane].Golden = rows[lane]
	}
}

// faultyBatch executes up to 64 consecutive instructions in the
// undervolted domain with one wide walk per pipeline cycle, filling
// recs[i]'s Faulty, MaxArrivalPS and EnergyFJ. The transition history is
// the exact serial one: lane L's previous stage input is lane L-1's
// current one (the preceding instruction), realized by shifting each
// cycle's input words up one lane with a.carry supplying lane 0 across
// batch boundaries. Lanes past len(pairs) are forced transition-free so a
// short batch costs (and records) nothing extra.
//
// A noLate analyzer walks nothing: every cycle captures its settled
// values, so the undervolted stage inputs are the golden ones goldenBatch
// left in wordBuf, Faulty is Golden and the carries are the golden words'
// last lane. MaxArrivalPS then reads 0, a lower bound.
func (a *Analyzer) faultyBatch(pairs []Pair, recs []Record) {
	a.haveHot = true
	n := len(pairs)
	for i := range recs[:n] {
		recs[i].MaxArrivalPS = 0
		recs[i].EnergyFJ = 0
	}
	if a.noLate {
		for ci, carry := range a.carry {
			for j, cw := range a.wordBuf[ci] {
				carry[j] = cw >> uint(n-1) & 1
			}
		}
		for i := range recs[:n] {
			recs[i].Faulty = recs[i].Golden
		}
		return
	}
	lib := a.stages[0].N.Lib
	inputArrival := lib.ClockToQ * a.scale
	deadline := a.clk - lib.Setup*a.scale
	for ci := range a.stages {
		cur := a.wordBuf[ci]
		prev := a.widePrev[:len(cur)]
		timingsim.ChainLanes(prev, cur, a.carry[ci], n)
		sm := a.wtiming[ci].Run(prev, cur, inputArrival, deadline)
		for lane := 0; lane < n; lane++ {
			if wa := sm.WorstArrival[lane]; wa > recs[lane].MaxArrivalPS {
				recs[lane].MaxArrivalPS = wa
			}
			recs[lane].EnergyFJ += sm.EnergyFJ[lane]
		}
		// Erroneously captured values feed the next stage, lane by lane.
		copy(a.wordBuf[ci+1], sm.Captured)
	}
	final := a.wordBuf[len(a.wordBuf)-1]
	rw := a.p.Op.ResultWidth()
	var rows [64]uint64
	copy(rows[:], final[:rw])
	logicsim.Transpose64(&rows)
	for lane := 0; lane < n; lane++ {
		recs[lane].Faulty = rows[lane]
	}
}

// faultyStep executes one instruction in the undervolted domain on a
// scalar engine, returning the captured result encoding, the worst
// arrival observed and the switching energy spent.
func (a *Analyzer) faultyStep(pair Pair) (faulty uint64, maxArrivalPS, energyFJ float64) {
	a.haveHot = true
	lib := a.stages[0].N.Lib
	inputArrival := lib.ClockToQ * a.scale
	deadline := a.clk - lib.Setup*a.scale

	faultyIn := a.packInputs(pair)
	for ci := range a.stages {
		// Timing simulation from the previous cycle's (faulty-domain)
		// stage inputs to the current ones.
		//teva:allow hotalloc -- reviewed: Runner dispatch reaches timingsim.ExactSim, which is steady-state alloc-free (AllocsPerRun tests)
		sample := a.timing[ci].Run(a.prevIn[ci], faultyIn, inputArrival, deadline)
		if sample.WorstArrival > maxArrivalPS {
			maxArrivalPS = sample.WorstArrival
		}
		energyFJ += sample.EnergyFJ
		// The sample is only valid until the engine's next Run; copy the
		// captured outputs into this cycle's reusable buffer before the
		// next stage overwrites them.
		copy(a.curOut[ci], sample.Captured)
		copy(a.prevIn[ci], faultyIn)
		faultyIn = a.curOut[ci]
	}
	return logicsim.UnpackOutputs(faultyIn, 0, a.p.Op.ResultWidth()), maxArrivalPS, energyFJ
}

// packInputs builds the rank-0 input vector into the reusable a.inBuf.
func (a *Analyzer) packInputs(pair Pair) []bool {
	op := a.p.Op
	in := a.inBuf
	clear(in)
	w := op.OperandWidth()
	logicsim.PackInputs(in, 0, w, pair.A)
	if op.NumOperands() == 2 {
		logicsim.PackInputs(in, w, w, pair.B)
	}
	return in
}

// Metric names published by AnalyzeStream. A "cycle" here is one
// expanded pipeline cycle (stage repeats included): instructions ×
// sum(Repeat) over the op's stages.
const (
	MetricStreamCalls = "dta.stream_calls"
	MetricPairs       = "dta.pairs_analyzed"
	MetricCycles      = "dta.cycles_analyzed"
	MetricViolations  = "dta.endpoint_violations"
	MetricShards      = "dta.shards"
)

// cancelChunk is how many pairs a shard analyzes between cancellation
// checks. Small enough that a canceled matrix run stops within
// milliseconds, large enough that the check is free against the cost of a
// gate-level walk.
const cancelChunk = 256

// AnalyzeStream runs DTA over a stream of operand pairs at delay scale
// scale, filling the Record fields detail selects, sharding across
// workers (<= 0 means GOMAXPROCS). Results are returned in input order
// and are identical for any worker count; Golden, Faulty and Mask are
// identical for either detail.
//
// Pipeline history couples consecutive pairs, so each shard but the
// first speculatively warms up on the previous shard's last pair. That
// reproduces the serial stage-0 transition but not always the deeper
// stages' history: a warm-up from a cold pipeline can capture different
// (late) values than the serial run did at that point. Each shard
// therefore records the faulty-domain history it started from and the
// one it ended with; after the join, any shard whose start differs from
// its predecessor's end is re-run from that end, in stream order.
//
// Shards run behind guard's panic barrier: a panicking shard surfaces as
// a *guard.PanicError instead of killing the process.
//
// Every shard checks ctx between cancelChunk-sized batches and abandons
// the remainder once ctx is done. On cancellation the partially filled
// records are returned alongside ctx.Err().
//
// Pairs/cycles analyzed, endpoint (output-mask) violations and shard
// fan-out are accumulated on m, only for runs that complete. All counts
// are pure functions of the inputs — worker scheduling cannot change
// them — so snapshots stay deterministic. A nil registry records
// nothing.
func AnalyzeStream(ctx context.Context, f *fpu.FPU, op fpu.Op, scale float64, eng Engine, detail Detail, pairs []Pair, workers int, m *obs.Registry) ([]Record, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	records := make([]Record, len(pairs))
	if len(pairs) == 0 {
		return records, ctx.Err()
	}
	sp := m.Phase("dta")
	chunk := (len(pairs) + workers - 1) / workers
	var shards []shard
	for lo := 0; lo < len(pairs); lo += chunk {
		shards = append(shards, shard{lo: lo, hi: min(lo+chunk, len(pairs))})
	}
	var (
		wg   sync.WaitGroup
		sink guard.Sink
	)
	for i := range shards {
		sh := &shards[i]
		guard.Go(&wg, &sink, fmt.Sprintf("dta %s shard %d", op, i), func() error {
			a, pool := getAnalyzer(f, op, scale, eng, detail)
			defer pool.Put(a)
			if sh.lo > 0 {
				a.Warm(pairs[sh.lo-1])
				sh.start = a.history(nil)
			}
			sh.run(ctx, a, pairs, records)
			return nil
		})
	}
	wg.Wait()
	if err := sink.Join(); err != nil {
		return records, err
	}
	for i := 1; i < len(shards) && ctx.Err() == nil; i++ {
		if prev := shards[i-1].end; !slices.Equal(shards[i].start, prev) {
			a, pool := getAnalyzer(f, op, scale, eng, detail)
			a.setHistory(prev)
			shards[i].run(ctx, a, pairs, records)
			pool.Put(a)
		}
	}
	sp.End()
	if err := ctx.Err(); err != nil {
		return records, err
	}
	if m != nil {
		cyclesPerPair := 0
		for _, s := range f.Pipeline(op).Stages {
			cyclesPerPair += s.Repeat
		}
		violations := int64(0)
		for i := range records {
			if records[i].Mask != 0 {
				violations++
			}
		}
		m.Counter(MetricStreamCalls).Inc()
		m.Counter(MetricPairs).Add(int64(len(pairs)))
		m.Counter(MetricCycles).Add(int64(len(pairs) * cyclesPerPair))
		m.Counter(MetricViolations).Add(violations)
		m.Counter(MetricShards).Add(int64(len(shards)))
	}
	return records, nil
}

// shard is one contiguous slice [lo, hi) of an AnalyzeStream, with the
// faulty-domain history it started from (nil for the stream's head) and
// the one it ended with.
type shard struct {
	lo, hi     int
	start, end []uint64
}

// run analyzes the shard's pairs on a into records, checking ctx between
// cancelChunk-sized batches, and records the history it ends with.
func (sh *shard) run(ctx context.Context, a *Analyzer, pairs []Pair, records []Record) {
	for s := sh.lo; s < sh.hi; s += cancelChunk {
		if ctx.Err() != nil {
			return
		}
		e := min(s+cancelChunk, sh.hi)
		a.AnalyzeBatch(pairs[s:e], records[s:e])
	}
	sh.end = a.history(sh.end[:0])
}

// history appends the analyzer's faulty-domain pipeline history — every
// expanded cycle's previous stage input, which the next instruction's
// transitions start from — to dst: the wide engine's lane-0 carries, or
// the exact engine's previous-input bits.
func (a *Analyzer) history(dst []uint64) []uint64 {
	for _, c := range a.carry {
		dst = append(dst, c...)
	}
	for _, p := range a.prevIn {
		for _, b := range p {
			v := uint64(0)
			if b {
				v = 1
			}
			dst = append(dst, v)
		}
	}
	return dst
}

// setHistory loads a history captured by history into a and marks it
// warm, so its next instruction transitions from that exact state.
func (a *Analyzer) setHistory(h []uint64) {
	for _, c := range a.carry {
		h = h[copy(c, h):]
	}
	for _, p := range a.prevIn {
		for i := range p {
			p[i] = h[i] == 1
		}
		h = h[len(p):]
	}
	a.haveHot = true
}

// Summary aggregates a record set into the statistics the error models are
// built from.
type Summary struct {
	// Op is the instruction type.
	Op fpu.Op
	// Total is the number of analyzed instructions.
	Total int
	// Faulty is how many suffered at least one corrupted bit.
	Faulty int
	// BitErrors[i] counts records whose bit i was corrupted.
	BitErrors []int
	// FlipHist[k] counts faulty records with exactly k corrupted bits
	// (index 0 unused).
	FlipHist []int
	// Masks holds every non-zero bitmask observed, in stream order (the
	// WA-model's empirical pool).
	Masks []uint64
}

// Summarize reduces records for model building.
func Summarize(op fpu.Op, records []Record) *Summary {
	rw := op.ResultWidth()
	s := &Summary{
		Op:        op,
		Total:     len(records),
		BitErrors: make([]int, rw),
		FlipHist:  make([]int, rw+1),
	}
	for _, r := range records {
		if r.Mask == 0 {
			continue
		}
		s.Faulty++
		s.Masks = append(s.Masks, r.Mask)
		flips := 0
		for b := 0; b < rw; b++ {
			if r.Mask>>uint(b)&1 == 1 {
				s.BitErrors[b]++
				flips++
			}
		}
		s.FlipHist[flips]++
	}
	return s
}

// ErrorRatio returns Eq. 2: faulty / total instructions.
func (s *Summary) ErrorRatio() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Faulty) / float64(s.Total)
}

// BER returns the per-output-bit error ratio (relative to all analyzed
// instructions), the quantity of Figures 6-8.
func (s *Summary) BER() []float64 {
	out := make([]float64, len(s.BitErrors))
	if s.Total == 0 {
		return out
	}
	for i, c := range s.BitErrors {
		out[i] = float64(c) / float64(s.Total)
	}
	return out
}

// MultiBitFraction returns the share of faulty instructions with more
// than one corrupted bit (Figure 5's headline statistic).
func (s *Summary) MultiBitFraction() float64 {
	if s.Faulty == 0 {
		return 0
	}
	multi := 0
	for k := 2; k < len(s.FlipHist); k++ {
		multi += s.FlipHist[k]
	}
	return float64(multi) / float64(s.Faulty)
}
