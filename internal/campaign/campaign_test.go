package campaign

import (
	"math"
	"testing"

	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/fpu"
	"teva/internal/prng"
	"teva/internal/workloads"
)

func tinyWorkload(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name, workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// syntheticSummary is a DTA summary of the op whose faulty records carry
// the given masks, padded with error-free records to the rate er.
func syntheticSummary(op fpu.Op, er float64, masks []uint64) *dta.Summary {
	recs := make([]dta.Record, 0)
	for _, m := range masks {
		recs = append(recs, dta.Record{Mask: m})
	}
	total := int(float64(len(masks))/er + 0.5)
	for len(recs) < total {
		recs = append(recs, dta.Record{})
	}
	return dta.Summarize(op, recs)
}

// syntheticWA builds a WA model with the given per-op rate and masks.
func syntheticWA(level string, op fpu.Op, er float64, masks []uint64) *errmodel.WAModel {
	return errmodel.BuildWA(level, "synthetic", map[fpu.Op]*dta.Summary{
		op: syntheticSummary(op, er, masks),
	})
}

func TestZeroRateModelIsFullyMasked(t *testing.T) {
	w := tinyWorkload(t, "sobel")
	m := errmodel.BuildDA("VR15", 0, 1000)
	res, err := Run(Spec{Workload: w, Model: m, Runs: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[Masked] != 8 {
		t.Fatalf("outcomes %v", res.Outcomes)
	}
	if res.InjectedErrors != 0 || res.RunsWithInjection != 0 {
		t.Fatalf("spurious injections: %+v", res)
	}
	if res.AVM() != 0 || res.ErrorRatio() != 0 {
		t.Fatal("AVM and ER must be zero")
	}
}

func TestMantissaCorruptionCausesSDC(t *testing.T) {
	// Flipping mid-mantissa bits in sobel's adds perturbs the output
	// image without crashing. (Pure LSB flips are fully absorbed by the
	// final integer quantization — genuine application resilience.)
	w := tinyWorkload(t, "sobel")
	m := syntheticWA("VR20", fpu.DAdd, 0.02, []uint64{1 << 45, 1 << 48})
	res, err := Run(Spec{Workload: w, Model: m, Runs: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[SDC] == 0 {
		t.Fatalf("expected SDC outcomes: %v", res.Outcomes)
	}
	if res.Outcomes[Crash] != 0 {
		t.Fatalf("mantissa LSB flips should not crash: %v", res.Outcomes)
	}
	if res.InjectedErrors == 0 || res.RunsWithInjection == 0 {
		t.Fatal("injections not recorded")
	}
	if res.AVM() == 0 {
		t.Fatal("AVM must be positive")
	}
}

func TestExponentCorruptionCanCrash(t *testing.T) {
	// Corrupting the top exponent bit of division results creates
	// Inf/NaN values that hit the FP invalid-operation trap or corrupt
	// control flow — the Crash class.
	w := tinyWorkload(t, "sobel")
	m := syntheticWA("VR20", fpu.DDiv, 0.05, []uint64{1 << 62})
	res, err := Run(Spec{Workload: w, Model: m, Runs: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := res.Outcomes[SDC] + res.Outcomes[Crash] + res.Outcomes[Timeout]
	if bad == 0 {
		t.Fatalf("expected disturbed outcomes: %v", res.Outcomes)
	}
}

func TestVerificationWorkloadDetectsCorruption(t *testing.T) {
	// is checks its key checksum in-program: corrupting the randlc
	// multiplications flips the console verdict (SDC via output diff).
	w := tinyWorkload(t, "is")
	m := syntheticWA("VR20", fpu.DMul, 0.001, []uint64{1 << 30})
	res, err := Run(Spec{Workload: w, Model: m, Runs: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[SDC]+res.Outcomes[Crash] == 0 {
		t.Fatalf("expected corrupted verification: %v", res.Outcomes)
	}
}

func TestDeterministicCampaign(t *testing.T) {
	w := tinyWorkload(t, "cg")
	m := syntheticWA("VR15", fpu.DMul, 0.005, []uint64{1 << 20, 1})
	r1, err := Run(Spec{Workload: w, Model: m, Runs: 10, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Spec{Workload: w, Model: m, Runs: 10, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outcomes != r2.Outcomes || r1.InjectedErrors != r2.InjectedErrors {
		t.Fatalf("campaign not reproducible: %v vs %v", r1.Outcomes, r2.Outcomes)
	}
}

func TestResultAccessors(t *testing.T) {
	r := &Result{Runs: 10}
	r.Outcomes[Masked] = 6
	r.Outcomes[SDC] = 2
	r.Outcomes[Crash] = 1
	r.Outcomes[Timeout] = 1
	r.RunsWithInjection = 8
	r.InjectedErrors = 40
	r.GoldenInstret = 1000
	if r.Fraction(SDC) != 0.2 {
		t.Fatal("fraction")
	}
	if r.AVM() != 0.5 {
		t.Fatalf("AVM %v", r.AVM())
	}
	if r.NonMaskedFraction() != 0.4 {
		t.Fatal("non-masked")
	}
	if r.ErrorRatio() != 40.0/10/1000 {
		t.Fatalf("ER %v", r.ErrorRatio())
	}
	lo, hi := r.Wilson(SDC)
	if lo >= 0.2 || hi <= 0.2 {
		t.Fatal("Wilson interval")
	}
	if r.String() == "" {
		t.Fatal("String")
	}
	if Masked.String() != "Masked" || Timeout.String() != "Timeout" {
		t.Fatal("outcome names")
	}
}

func TestInvalidSpec(t *testing.T) {
	w := tinyWorkload(t, "cg")
	if _, err := Run(Spec{Workload: w, Model: errmodel.BuildDA("VR15", 0, 1), Runs: 0}); err == nil {
		t.Fatal("zero runs must error")
	}
}

func TestSingleInjectionMode(t *testing.T) {
	w := tinyWorkload(t, "sobel")
	m := syntheticWA("VR20", fpu.DAdd, 0.5, []uint64{1 << 45})
	res, err := Run(Spec{Workload: w, Model: m, Runs: 20, Seed: 9, SingleInjection: true})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one injection per run.
	if res.InjectedErrors != int64(res.Runs) || res.RunsWithInjection != res.Runs {
		t.Fatalf("single-injection accounting wrong: %+v", res)
	}
	// AVM equals the non-masked fraction when every run injects once.
	if res.AVM() != res.NonMaskedFraction() {
		t.Fatalf("AVM %v != non-masked %v", res.AVM(), res.NonMaskedFraction())
	}
}

func TestSingleInjectionZeroRateModel(t *testing.T) {
	w := tinyWorkload(t, "cg")
	m := errmodel.BuildDA("VR15", 0, 1000)
	res, err := Run(Spec{Workload: w, Model: m, Runs: 6, Seed: 10, SingleInjection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[Masked] != 6 || res.RunsWithInjection != 0 || res.AVM() != 0 {
		t.Fatalf("zero-rate single injection: %+v", res)
	}
}

func TestSingleInjectionDAModel(t *testing.T) {
	// DA single injection targets any instruction class; with a nonzero
	// rate every run gets exactly one flip (up to no-writeback targets).
	w := tinyWorkload(t, "sobel")
	m := errmodel.BuildDA("VR20", 100, 10000)
	res, err := Run(Spec{Workload: w, Model: m, Runs: 30, Seed: 11, SingleInjection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunsWithInjection < res.Runs*7/10 {
		t.Fatalf("too few DA single injections landed: %+v", res)
	}
	if res.InjectedErrors > int64(res.Runs) {
		t.Fatalf("more than one injection in a run: %+v", res)
	}
}

func TestCrashTaxonomy(t *testing.T) {
	// Exponent-bit corruption on sobel's divisions produces FP exception
	// and memory-fault crashes; the taxonomy must account for every
	// crash.
	w := tinyWorkload(t, "sobel")
	m := syntheticWA("VR20", fpu.DDiv, 0.2, []uint64{1 << 62, 1 << 61})
	res, err := Run(Spec{Workload: w, Model: m, Runs: 24, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	var kinds int
	for kind, c := range res.CrashKinds {
		if c <= 0 {
			t.Fatalf("empty kind %q recorded", kind)
		}
		kinds += c
	}
	if kinds != res.Outcomes[Crash] {
		t.Fatalf("taxonomy accounts for %d of %d crashes", kinds, res.Outcomes[Crash])
	}
	if res.Outcomes[Crash] > 0 && len(res.CrashKinds) == 0 {
		t.Fatal("crashes without kinds")
	}
}

func TestInvalidTimeoutFactorRejected(t *testing.T) {
	w := tinyWorkload(t, "sobel")
	m := errmodel.BuildDA("VR15", 0, 1000)
	for name, tf := range map[string]float64{
		"negative":      -1,
		"tiny negative": -1e-9,
		"NaN":           math.NaN(),
		"+Inf":          math.Inf(1),
		"-Inf":          math.Inf(-1),
	} {
		if _, err := Run(Spec{Workload: w, Model: m, Runs: 2, Seed: 1, TimeoutFactor: tf}); err == nil {
			t.Errorf("%s TimeoutFactor must be rejected", name)
		}
	}
	// Zero still selects the paper's default of 2.0, and an explicit
	// positive factor still works.
	for _, tf := range []float64{0, 1.5} {
		if _, err := Run(Spec{Workload: w, Model: m, Runs: 2, Seed: 1, TimeoutFactor: tf}); err != nil {
			t.Errorf("TimeoutFactor %v must be accepted: %v", tf, err)
		}
	}
}

func TestCrashKindTaxonomy(t *testing.T) {
	for _, tc := range []struct {
		reason string
		want   string
	}{
		{"memory fault at 0x1000", "memory fault"},
		{"string fault: copy past segment end", "memory fault"},
		{"misaligned load at 0x3", "misaligned access"},
		{"jump outside text segment", "wild pc"},
		{"illegal instruction 0xdeadbeef", "illegal instruction"},
		{"fp invalid operation", "fp exception"},
		{"watchdog reset", "other"},
		{"", "other"},
	} {
		if got := crashKind(tc.reason); got != tc.want {
			t.Errorf("crashKind(%q) = %q, want %q", tc.reason, got, tc.want)
		}
	}
}

func TestSingleInjectionWithNilInjectorIsMasked(t *testing.T) {
	// A model whose every rate is zero makes SingleInjector return nil
	// ("this voltage level produces no errors for this application");
	// each run must then execute injection-free and classify as Masked
	// without counting toward RunsWithInjection.
	w := tinyWorkload(t, "sobel")
	m := errmodel.BuildDA("VR15", 0, 1000)
	res, err := Run(Spec{Workload: w, Model: m, Runs: 6, Seed: 5, SingleInjection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[Masked] != 6 {
		t.Fatalf("all runs must be Masked: %v", res.Outcomes)
	}
	if res.RunsWithInjection != 0 || res.InjectedErrors != 0 {
		t.Fatalf("nil injector must not record injections: %+v", res)
	}
	if res.AVM() != 0 {
		t.Fatalf("AVM must be 0, got %v", res.AVM())
	}
}

// TestWilsonPropertyOverRandomTallies asserts the interval contract
// 0 <= lo <= fraction <= hi <= 1 for every outcome class over randomized
// Result tallies, including empty cells (Runs == 0) and cells where one
// class takes all runs. Uses the repo's seedable source so failures
// reproduce byte-for-byte.
func TestWilsonPropertyOverRandomTallies(t *testing.T) {
	src := prng.New(0x81750)
	for iter := 0; iter < 5000; iter++ {
		var r Result
		r.Runs = src.Intn(1200) // 0 included
		remaining := r.Runs
		for o := Masked; o < NumOutcomes; o++ {
			c := remaining
			if o != NumOutcomes-1 && remaining > 0 {
				c = src.Intn(remaining + 1)
			}
			r.Outcomes[o] = c
			remaining -= c
		}
		for o := Masked; o < NumOutcomes; o++ {
			lo, hi := r.Wilson(o)
			v := r.Fraction(o)
			if !(0 <= lo && lo <= v && v <= hi && hi <= 1) {
				t.Fatalf("iter %d: Wilson(%v) = [%v, %v] does not bracket %v (tally %v/%d)",
					iter, o, lo, hi, v, r.Outcomes, r.Runs)
			}
		}
	}
}
