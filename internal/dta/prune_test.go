package dta_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"teva/internal/dta"
	"teva/internal/experiments"
	"teva/internal/fpu"
	"teva/internal/prng"
	"teva/internal/vscale"
)

// Slack pruning must not change what DTA reports: the pruned wide engine
// (Outcome detail) and the full one must agree on Golden, Faulty and Mask
// for every record and on the pipeline history every shard starts from
// and ends with, on the nominal design and on a process-varied die, at
// every corner the experiments use.

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
// from AnalyzeStream at 1 and 5 workers, and the history of each of the
// five shards AnalyzeStream cuts, at the shard's warm-up and at its end.
// It returns how many records are erroneous.
func checkPrunedMatchesFull(t *testing.T, c pruneCase, op fpu.Op, pairs []dta.Pair) (erroneous int) {
	t.Helper()
	for _, workers := range []int{1, 5} {
		var recs [2][]dta.Record
		for i, d := range []dta.Detail{dta.Outcome, dta.Full} {
			r, err := dta.AnalyzeStream(context.Background(), c.f, op, c.scale, dta.EngineWide, d, pairs, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			recs[i] = r
		}
		if i := samePrunedOutcome(recs[0], recs[1]); i >= 0 {
			t.Fatalf("%s %s workers=%d: record %d differs:\n  pruned %+v\n  full   %+v", c.name, op, workers, i, recs[0][i], recs[1][i])
		}
	}
	pruned := dta.New(c.f, op, c.scale, dta.EngineWide, dta.Outcome)
	full := dta.New(c.f, op, c.scale, dta.EngineWide, dta.Full)
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
	return erroneous
}

func TestPrunedMatchesFull(t *testing.T) {
	n := 157 // not a multiple of 5 or 64: shard and batch edges fall mid-stream
	if testing.Short() {
		n = 37
	}
	src := prng.New(0x9A1E)
	erroneous := 0
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
			erroneous += checkPrunedMatchesFull(t, c, op, pairs)
		}
	}
	// Pruning can only go wrong where some endpoint is late.
	if erroneous == 0 {
		t.Error("no erroneous record anywhere; the comparison holds vacuously")
	}
	t.Logf("%d erroneous records compared", erroneous)
}

// FuzzPrunedMatchesFull checks the same property on any three
// back-to-back instructions of any op at any of 48 delay scales in
// [1, 1.37), on the nominal design or the varied die.
func FuzzPrunedMatchesFull(f *testing.F) {
	for _, op := range fpu.Ops() {
		f.Add(uint8(op), uint8(33), false, uint64(0), uint64(0), ^uint64(0), ^uint64(0), uint64(0x3FF0000000000000), uint64(0x3F800000))
		f.Add(uint8(op), uint8(47), true, uint64(0x8000000000000001), uint64(0x7FF8000000000000), uint64(0), ^uint64(0), uint64(1), uint64(2))
	}
	dies := bounds()
	f.Fuzz(func(t *testing.T, opb, k uint8, varied bool, a0, b0, a1, b1, a2, b2 uint64) {
		op := fpu.Op(opb % uint8(fpu.NumOps))
		d := dies[0]
		if varied {
			d = dies[1]
		}
		c := pruneCase{name: d.name, f: d.f, scale: 1 + float64(k%48)/128}
		m := operandMask(op)
		pairs := []dta.Pair{{A: a0 & m, B: b0 & m}, {A: a1 & m, B: b1 & m}, {A: a2 & m, B: b2 & m}}
		pruned := dta.New(c.f, op, c.scale, dta.EngineWide, dta.Outcome)
		full := dta.New(c.f, op, c.scale, dta.EngineWide, dta.Full)
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
