package campaign

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"teva/internal/cpu"
	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/fpu"
	"teva/internal/obs"
	"teva/internal/prng"
	"teva/internal/workloads"
)

// referenceRuns is the campaign discipline without any fast path, kept
// here as the oracle: one golden run, then every run on a fresh CPU from
// reset to halt, crash or timeout, classified against golden's output.
func referenceRuns(t *testing.T, spec Spec, tf float64) []runOut {
	t.Helper()
	w := spec.Workload
	gc := cpu.New(w.Program, cpu.Config{TrapFPInvalid: true})
	gr := gc.Run(1 << 40)
	if gr.Status != cpu.Halted {
		t.Fatalf("%s golden: %v", w.Name, gr.Status)
	}
	out := append([]byte(nil), gc.Mem()[w.OutStart:w.OutStart+w.OutLen]...)
	budget := uint64(float64(gr.Cycles) * tf)
	prof := errmodel.ExecProfile{FPOps: gr.FPOps, TotalInstr: gr.Instret}
	outs := make([]runOut, spec.Runs)
	for i := range outs {
		src := prng.New(spec.Seed + uint64(i)*0x9E3779B97F4A7C15 + 1)
		var inj cpu.Injector
		if spec.SingleInjection {
			inj = errmodel.SingleInjector(spec.Model, prof, src)
		} else {
			inj = spec.Model.NewInjector(src)
		}
		c := cpu.New(w.Program, cpu.Config{Injector: inj, TrapFPInvalid: true})
		r := c.Run(budget)
		o := runOut{injections: r.Injections}
		switch {
		case r.Status == cpu.Crashed:
			o.outcome, o.crashKind = Crash, crashKind(r.Reason)
		case r.Status == cpu.TimedOut:
			o.outcome = Timeout
		case bytes.Equal(c.Mem()[w.OutStart:w.OutStart+w.OutLen], out) &&
			bytes.Equal(c.Output(), gc.Output()):
			o.outcome = Masked
		default:
			o.outcome = SDC
		}
		outs[i] = o
	}
	return outs
}

// aggregate folds per-run outcomes the way Run does.
func aggregate(outs []runOut) *Result {
	r := &Result{Runs: len(outs), CrashKinds: map[string]int{}}
	for _, o := range outs {
		r.Outcomes[o.outcome]++
		r.InjectedErrors += o.injections
		if o.injections > 0 {
			r.RunsWithInjection++
		}
		if o.crashKind != "" {
			r.CrashKinds[o.crashKind]++
		}
	}
	return r
}

// goldenEvery is NewGolden with checkpoints every n instructions.
func goldenEvery(t *testing.T, w *workloads.Workload, n int64) *Golden {
	t.Helper()
	g, err := NewGolden(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		g.interval = n
	}
	return g
}

// syntheticModels returns a DA, an IA and a WA model at the level whose
// masks reach every outcome class: low mantissa bits are mostly masked,
// mid bits corrupt the output, and high exponent and sign bits crash or
// hang the program. VR20 errs more often, and in higher bits, than VR15.
func syntheticModels(level string) []errmodel.Model {
	sums := map[fpu.Op]*dta.Summary{}
	for _, op := range fpu.Ops() {
		w := uint(op.ResultWidth())
		er, masks := 0.01, []uint64{1 << 1, 1 << (w / 2)}
		if level == "VR20" {
			er, masks = 0.05, append(masks, 1<<(w-3), 1<<(w-1), 3<<(w-12))
		}
		sums[op] = syntheticSummary(op, er, masks)
	}
	return []errmodel.Model{
		errmodel.BuildDA(level, int64(1000*sums[fpu.DAdd].ErrorRatio()), 1000),
		errmodel.BuildIA(level, sums),
		errmodel.BuildWA(level, "synthetic", sums),
	}
}

// compareRuns fails unless the fast path gives the reference's outcome,
// injection count and crash kind for every run, one at a time on one
// reused CPU, and the same aggregate through Run with two workers.
func compareRuns(t *testing.T, label string, spec Spec, g *Golden, tf float64, want []runOut) {
	t.Helper()
	r := newRunner(spec, g, tf)
	var c *cpu.CPU
	for i, ref := range want {
		got := r.run(&c, i)
		if got.outcome != ref.outcome || got.injections != ref.injections || got.crashKind != ref.crashKind {
			t.Fatalf("%s run %d: fast path %v/%d injections/%q, reference %v/%d/%q",
				label, i, got.outcome, got.injections, got.crashKind, ref.outcome, ref.injections, ref.crashKind)
		}
	}
	spec.Golden, spec.Workers, spec.TimeoutFactor = g, 2, tf
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := aggregate(want)
	if res.Outcomes != ref.Outcomes || res.InjectedErrors != ref.InjectedErrors ||
		res.RunsWithInjection != ref.RunsWithInjection || !reflect.DeepEqual(res.CrashKinds, ref.CrashKinds) {
		t.Fatalf("%s: Run %v %d/%d %v, reference %v %d/%d %v", label,
			res.Outcomes, res.InjectedErrors, res.RunsWithInjection, res.CrashKinds,
			ref.Outcomes, ref.InjectedErrors, ref.RunsWithInjection, ref.CrashKinds)
	}
}

// TestFastPathMatchesReference is the fast path's correctness gate: for
// every Tiny workload, DA/IA/WA model and both voltage levels, over three
// seeds, single-injection runs started from golden checkpoints and
// stopped at the masked early exit must classify exactly as full runs
// from reset, both at the default checkpoint interval and at an odd
// 97-instruction one.
func TestFastPathMatchesReference(t *testing.T) {
	runs := 12
	if testing.Short() {
		runs = 4
	}
	var tally [NumOutcomes]int
	for _, name := range workloads.Names() {
		w := tinyWorkload(t, name)
		goldens := []*Golden{goldenEvery(t, w, 0), goldenEvery(t, w, 97)}
		for _, level := range []string{"VR15", "VR20"} {
			for _, m := range syntheticModels(level) {
				for _, seed := range []uint64{1, 2, 3} {
					spec := Spec{Workload: w, Model: m, Runs: runs, Seed: seed, SingleInjection: true}
					want := referenceRuns(t, spec, 2)
					for _, g := range goldens {
						label := fmt.Sprintf("%s/%s@%s seed %d interval %d", name, m.Kind(), level, seed, g.interval)
						compareRuns(t, label, spec, g, 2, want)
					}
					for _, o := range want {
						tally[o.outcome]++
					}
				}
			}
		}
	}
	// The gate only means something if the runs reach every class.
	for o, n := range tally {
		if n == 0 {
			t.Errorf("no %v runs: the differential test lost coverage (tally %v)", Outcome(o), tally)
		}
	}
}

// TestFastPathBudgetFallback checks that a budget below the golden cycle
// count (TimeoutFactor 0.5) takes the full-run path, since a restored
// prefix or an early exit would stand for a golden run that cannot
// finish, and that a budget of exactly the golden cycle count may use
// the fast path and still matches the reference.
func TestFastPathBudgetFallback(t *testing.T) {
	w := tinyWorkload(t, "cg")
	m := syntheticModels("VR20")[0]
	spec := Spec{Workload: w, Model: m, Runs: 8, Seed: 4, SingleInjection: true}
	g := goldenEvery(t, w, 97)
	for _, tf := range []float64{0.5, 1} {
		reg := obs.NewRegistry(nil)
		spec.Metrics = reg
		if fast := newRunner(spec, g, tf).fast; fast != (tf >= 1) {
			t.Fatalf("TimeoutFactor %v: fast path %v", tf, fast)
		}
		compareRuns(t, fmt.Sprintf("TimeoutFactor %v", tf), spec, g, tf, referenceRuns(t, spec, tf))
		restored := reg.Snapshot().Counter(MetricFastRestoredRuns)
		if tf < 1 && restored != 0 {
			t.Errorf("TimeoutFactor %v restored %d runs from checkpoints", tf, restored)
		}
	}
}

// TestFastPathStochasticReuse checks the stochastic discipline on a
// reused CPU reset between runs against fresh CPUs, and that it never
// records checkpoints beyond reset.
func TestFastPathStochasticReuse(t *testing.T) {
	for _, name := range []string{"sobel", "is", "hotspot"} {
		w := tinyWorkload(t, name)
		g := goldenEvery(t, w, 0)
		for _, m := range syntheticModels("VR20")[1:] {
			spec := Spec{Workload: w, Model: m, Runs: 6, Seed: 7}
			compareRuns(t, name+"/"+string(m.Kind()), spec, g, 2, referenceRuns(t, spec, 2))
		}
		if g.rec != nil {
			t.Errorf("%s: a stochastic cell recorded golden checkpoints", name)
		}
	}
}

// TestFastPathCounters checks the campaign.fast.* tallies of a
// single-injection cell against their definitions, and that
// campaign.golden_runs counts golden executions, not cells.
func TestFastPathCounters(t *testing.T) {
	w := tinyWorkload(t, "k-means")
	reg := obs.NewRegistry(nil)
	g, err := NewGolden(w, reg)
	if err != nil {
		t.Fatal(err)
	}
	var masked int64
	for _, m := range syntheticModels("VR15") {
		res, err := Run(Spec{Workload: w, Model: m, Runs: 16, Seed: 3, SingleInjection: true, Golden: g, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		masked += int64(res.Outcomes[Masked])
	}
	snap := reg.Snapshot()
	if n := snap.Counter(MetricGoldenRuns); n != 1 {
		t.Errorf("golden_runs %d over 3 cells sharing one golden run, want 1", n)
	}
	exits := snap.Counter(MetricFastMaskedExits) + snap.Counter(MetricFastUninjectedSkips)
	if exits == 0 || exits > masked {
		t.Errorf("%d early exits for %d Masked runs", exits, masked)
	}
	if snap.Counter(MetricFastRestoredRuns) == 0 || snap.Counter(MetricFastInstrSkipped) == 0 {
		t.Errorf("no restored runs or skipped instructions: %s", snap.JSON())
	}
	if _, err := Run(Spec{Workload: tinyWorkload(t, "cg"), Model: syntheticModels("VR15")[0], Runs: 2, Golden: g}); err == nil {
		t.Error("a golden run of another workload was accepted")
	}
}
