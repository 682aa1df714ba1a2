package dta_test

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"teva/internal/dta"
	"teva/internal/experiments"
	"teva/internal/fpu"
	"teva/internal/netlist"
	"teva/internal/obs"
	"teva/internal/prng"
	"teva/internal/vscale"
)

// Slack pruning must not change what DTA reports: the pruned wide engine
// (Outcome detail) and the full one must agree on Golden, Faulty and Mask
// for every record, on the pipeline history every shard starts from and
// ends with, and on the stream counters, on the nominal design and on a
// process-varied die, at every corner the experiments use. That covers
// both pruned modes: the walk over tracked gates, and the skipped walk of
// an op where no endpoint can be late. Full never skips.

// streamCounters are the AnalyzeStream counters pruning must not move.
var streamCounters = []string{dta.MetricPairs, dta.MetricCycles, dta.MetricViolations, dta.MetricShards}

// pruneCase is one (die, delay scale) the differential test covers.
// -short skips the sources cases.
type pruneCase struct {
	name    string
	f       *fpu.FPU
	scale   float64
	sources bool
}

// pruneCases are every DefaultCorners corner and every Sources scale on
// the nominal design, and the default corners on the varied die.
var pruneCases = sync.OnceValue(func() []pruneCase {
	dies := bounds()
	f := dies[0].f
	m := vscale.Default45nm()
	var cases []pruneCase
	for _, c := range experiments.DefaultCorners() {
		cases = append(cases,
			pruneCase{name: c.Label(), f: f, scale: c.Derate()},
			pruneCase{name: dies[1].name + " " + c.Label(), f: dies[1].f, scale: c.Derate()})
	}
	for _, c := range experiments.SourceCorners() {
		cases = append(cases, pruneCase{name: "sources " + c.Name, f: f, scale: m.Scale(c.Stress), sources: true})
	}
	return cases
})

// samePrunedOutcome reports the first record where pruned and full
// disagree on Golden, Faulty or Mask, or -1.
func samePrunedOutcome(pruned, full []dta.Record) int {
	for i := range full {
		p, q := pruned[i], full[i]
		if p.A != q.A || p.B != q.B || p.Golden != q.Golden || p.Faulty != q.Faulty || p.Mask != q.Mask {
			return i
		}
	}
	return -1
}

// checkPrunedMatchesFull compares the two details on one stream: records
// and counters from AnalyzeStream at 1 and 5 workers, and the history of
// each of the five shards AnalyzeStream cuts, at the shard's warm-up and
// at its end. It returns how many records are erroneous and whether the
// pruned analyzer skips the faulty walk.
func checkPrunedMatchesFull(t *testing.T, c pruneCase, op fpu.Op, pairs []dta.Pair) (erroneous int, skipped bool) {
	t.Helper()
	for _, workers := range []int{1, 5} {
		var recs [2][]dta.Record
		var regs [2]*obs.Registry
		for i, d := range []dta.Detail{dta.Outcome, dta.Full} {
			regs[i] = obs.NewRegistry(nil)
			r, err := dta.AnalyzeStream(context.Background(), c.f, op, c.scale, dta.EngineWide, d, pairs, workers, regs[i])
			if err != nil {
				t.Fatal(err)
			}
			recs[i] = r
		}
		if i := samePrunedOutcome(recs[0], recs[1]); i >= 0 {
			t.Fatalf("%s %s workers=%d: record %d differs:\n  pruned %+v\n  full   %+v", c.name, op, workers, i, recs[0][i], recs[1][i])
		}
		for _, name := range streamCounters {
			if p, q := regs[0].Counter(name).Value(), regs[1].Counter(name).Value(); p != q {
				t.Fatalf("%s %s workers=%d: %s pruned %d, full %d", c.name, op, workers, name, p, q)
			}
		}
	}
	pruned := dta.New(c.f, op, c.scale, dta.EngineWide, dta.Outcome)
	full := dta.New(c.f, op, c.scale, dta.EngineWide, dta.Full)
	if full.SkipsFaultyWalk() {
		t.Fatalf("%s %s: the full analyzer skips its faulty walk", c.name, op)
	}
	prec := make([]dta.Record, len(pairs))
	frec := make([]dta.Record, len(pairs))
	chunk := (len(pairs) + 4) / 5
	for lo := 0; lo < len(pairs); lo += chunk {
		hi := min(lo+chunk, len(pairs))
		pruned.Reset()
		full.Reset()
		if lo > 0 {
			pruned.Warm(pairs[lo-1])
			full.Warm(pairs[lo-1])
			if !slices.Equal(pruned.History(), full.History()) {
				t.Fatalf("%s %s: shard [%d,%d) starts from a different history", c.name, op, lo, hi)
			}
		}
		pruned.AnalyzeBatch(pairs[lo:hi], prec[lo:hi])
		full.AnalyzeBatch(pairs[lo:hi], frec[lo:hi])
		if !slices.Equal(pruned.History(), full.History()) {
			t.Fatalf("%s %s: shard [%d,%d) ends with a different history", c.name, op, lo, hi)
		}
	}
	for _, r := range frec {
		if r.Erroneous() {
			erroneous++
		}
	}
	return erroneous, pruned.SkipsFaultyWalk()
}

func TestPrunedMatchesFull(t *testing.T) {
	n := 157 // not a multiple of 5 or 64: shard and batch edges fall mid-stream
	if testing.Short() {
		n = 37
	}
	src := prng.New(0x9A1E)
	vr15 := vscale.Default45nm().ScaleFor(vscale.VR15)
	erroneous, skippedAtVR15 := 0, 0
	for _, op := range fpu.Ops() {
		mask := operandMask(op)
		pairs := make([]dta.Pair, n)
		for i := range pairs {
			pairs[i] = dta.Pair{A: src.Uint64() & mask, B: src.Uint64() & mask}
		}
		for _, c := range pruneCases() {
			if c.sources && testing.Short() {
				continue
			}
			e, skipped := checkPrunedMatchesFull(t, c, op, pairs)
			erroneous += e
			if skipped && c.f == pruneCases()[0].f && c.scale == vr15 {
				skippedAtVR15++
			}
		}
	}
	// Pruning can only go wrong where some endpoint is late, and the
	// skip only where an op cannot be late.
	if erroneous == 0 {
		t.Error("no erroneous record anywhere; the comparison holds vacuously")
	}
	if skippedAtVR15 == 0 {
		t.Error("no op skips its faulty walk at VR15; the skip goes untested")
	}
	t.Logf("%d erroneous records compared; %d ops skip the faulty walk at VR15", erroneous, skippedAtVR15)
}

// FuzzPrunedMatchesFull checks the same property on any three
// back-to-back instructions of any op at any of 48 delay scales in
// [1, 1.37) or at VR15 (k%49 == 48), on the nominal design or the varied
// die. The seeds run every op at VR15, where some ops skip the walk.
func FuzzPrunedMatchesFull(f *testing.F) {
	dies := bounds()
	vr15 := vscale.Default45nm().ScaleFor(vscale.VR15)
	skips := 0
	for _, op := range fpu.Ops() {
		f.Add(uint8(op), uint8(33), false, uint64(0), uint64(0), ^uint64(0), ^uint64(0), uint64(0x3FF0000000000000), uint64(0x3F800000))
		f.Add(uint8(op), uint8(47), true, uint64(0x8000000000000001), uint64(0x7FF8000000000000), uint64(0), ^uint64(0), uint64(1), uint64(2))
		f.Add(uint8(op), uint8(48), false, uint64(0x4000000000000000), uint64(0xBFF8000000000000), uint64(0x40490FDB), uint64(0xC2C80000), uint64(0), uint64(7))
		if dta.New(dies[0].f, op, vr15, dta.EngineWide, dta.Outcome).SkipsFaultyWalk() {
			skips++
		}
	}
	if skips == 0 {
		f.Fatal("no op skips its faulty walk at VR15; the seeds leave the skip untested")
	}
	f.Fuzz(func(t *testing.T, opb, k uint8, varied bool, a0, b0, a1, b1, a2, b2 uint64) {
		op := fpu.Op(opb % uint8(fpu.NumOps))
		d := dies[0]
		if varied {
			d = dies[1]
		}
		scale := 1 + float64(k%49)/128
		if k%49 == 48 {
			scale = vr15
		}
		c := pruneCase{name: d.name, f: d.f, scale: scale}
		m := operandMask(op)
		pairs := []dta.Pair{{A: a0 & m, B: b0 & m}, {A: a1 & m, B: b1 & m}, {A: a2 & m, B: b2 & m}}
		pruned := dta.New(c.f, op, c.scale, dta.EngineWide, dta.Outcome)
		full := dta.New(c.f, op, c.scale, dta.EngineWide, dta.Full)
		if full.SkipsFaultyWalk() {
			t.Fatalf("%s %s at scale %v: the full analyzer skips its faulty walk", c.name, op, c.scale)
		}
		prec := make([]dta.Record, len(pairs))
		frec := make([]dta.Record, len(pairs))
		pruned.AnalyzeBatch(pairs, prec)
		full.AnalyzeBatch(pairs, frec)
		if i := samePrunedOutcome(prec, frec); i >= 0 {
			t.Fatalf("%s %s at scale %v: record %d differs:\n  pruned %+v\n  full   %+v", c.name, op, c.scale, i, prec[i], frec[i])
		}
		if !slices.Equal(pruned.History(), full.History()) {
			t.Fatalf("%s %s at scale %v: histories differ", c.name, op, c.scale)
		}
	})
}

// TestOpSlackMatchesStageReports: the cached nominal STA pass the pruned
// engine decides from is the stage reports' timing. Every gate's cached
// path is its PathDelay rounded up to the nearest float32 (-Inf for a
// gate that reaches no endpoint), each stage's worst cached path is its
// WorstDelay to within one float32 step, so the op slack read from the cache
// is the stage reports' slack: ~0 for the padded multiplier at nominal
// voltage, negative for it at VR20, positive for the unpadded
// single-precision conversion even at VR20.
func TestOpSlackMatchesStageReports(t *testing.T) {
	f := bounds()[0].f
	vr20 := vscale.Default45nm().ScaleFor(vscale.VR20)
	slack := map[fpu.Op]map[float64]float64{}
	for _, op := range []fpu.Op{fpu.DMul, fpu.DAdd, fpu.SI2F, fpu.DDiv} {
		paths := dta.NominalPaths(f, op)
		worst := 0.0
		for si, r := range f.Pipeline(op).STA() {
			c := f.Pipeline(op).Stages[si].N.Compiled()
			stageWorst := float32(math.Inf(-1))
			for gi := 0; gi < c.NumGates; gi++ {
				nominal := r.PathDelay(netlist.NetID(c.Out[gi]))
				p := paths[si][gi]
				below := float64(math.Nextafter32(p, float32(math.Inf(-1))))
				if float64(p) < nominal || below >= nominal && !math.IsInf(nominal, -1) {
					t.Fatalf("%s stage %d gate %d: cached path %v is not %v rounded up to float32", op, si, gi, p, nominal)
				}
				stageWorst = max(stageWorst, p)
			}
			// PathDelay sums arrival and remaining delay in another order
			// than the report's endpoint walk, so the two may differ in the
			// last float64 bits and the round-up by one float32 step.
			w := float32(r.WorstDelay)
			if stageWorst < math.Nextafter32(w, float32(math.Inf(-1))) || stageWorst > math.Nextafter32(w, float32(math.Inf(1))) {
				t.Fatalf("%s stage %d: worst cached path %v, stage report %v", op, si, stageWorst, r.WorstDelay)
			}
			worst = max(worst, r.WorstDelay)
		}
		slack[op] = map[float64]float64{}
		for _, scale := range []float64{1.0, vr20} {
			got := f.CLK
			for si := range paths {
				for _, p := range paths[si] {
					got = min(got, f.CLK-scale*float64(p))
				}
			}
			if want := f.CLK - scale*worst; math.Abs(got-want) > 1e-6*f.CLK {
				t.Fatalf("%s at scale %v: cached slack %v, stage reports %v", op, scale, got, want)
			}
			slack[op][scale] = got
		}
	}
	if s := slack[fpu.DMul][1.0]; s < -1 || s > 10 {
		t.Fatalf("DMul nominal slack %v, want ~0", s)
	}
	if s := slack[fpu.DMul][vr20]; s >= 0 {
		t.Fatalf("DMul VR20 slack %v, want negative", s)
	}
	if s := slack[fpu.SI2F][vr20]; s <= 0 {
		t.Fatalf("SI2F VR20 slack %v, want positive", s)
	}
}

// TestTrackedGatesShareTheScreenSTA: the pruned engine's tracked sets,
// and so its decision to skip the faulty walk, derive from one cached
// nominal STA pass per (FPU, op), and each tracked set is the NetSlack
// rule up to the cache's float32 round-up, which may only add gates. An
// op with no tracked gate skips its faulty walk.
func TestTrackedGatesShareTheScreenSTA(t *testing.T) {
	f := bounds()[0].f
	vr20 := vscale.Default45nm().ScaleFor(vscale.VR20)
	for _, op := range []fpu.Op{fpu.DMul, fpu.DDiv, fpu.SI2F} {
		first := dta.NominalPaths(f, op)
		a := dta.New(f, op, vr20, dta.EngineWide, dta.Outcome)
		if again := dta.NominalPaths(f, op); &again[0] != &first[0] {
			t.Fatalf("%s: building an analyzer replaced the cached STA pass", op)
		}
		tracked := dta.TrackedGates(f, op, vr20)
		limit := f.CLK * (1 - dta.PruneMargin)
		count := 0
		for si, r := range f.Pipeline(op).STA() {
			c := f.Pipeline(op).Stages[si].N.Compiled()
			for gi := 0; gi < c.NumGates; gi++ {
				d := vr20 * r.PathDelay(netlist.NetID(c.Out[gi]))
				on := tracked[si][gi>>6]>>uint(gi&63)&1 == 1
				if d > limit && !on {
					t.Fatalf("%s stage %d gate %d: path %.6f ps can be late but is untracked", op, si, gi, d)
				}
				if on && d <= limit*(1-1e-6) {
					t.Fatalf("%s stage %d gate %d: path %.6f ps tracked below the limit", op, si, gi, d)
				}
				if on {
					count++
				}
			}
		}
		if op == fpu.SI2F && (count != 0 || !a.SkipsFaultyWalk()) {
			t.Errorf("%s: %d gates tracked at VR20 (skips the walk: %v), want none (the op has slack to spare)", op, count, a.SkipsFaultyWalk())
		}
		if op != fpu.SI2F && (count == 0 || a.SkipsFaultyWalk()) {
			t.Errorf("%s: %d gates tracked at VR20 (skips the walk: %v), but the op fails there", op, count, a.SkipsFaultyWalk())
		}
	}
}
