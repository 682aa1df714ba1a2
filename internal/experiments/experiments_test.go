package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"teva/internal/campaign"
	"teva/internal/core"
	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/fpu"
	"teva/internal/prng"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// testEnv uses tiny workloads and characterization so the entire figure
// suite runs in seconds.
var testEnv = mustEnv()

func mustEnv() *Env {
	f, err := core.New(core.Config{
		Seed:             0xF00D,
		RandomOperands:   2000,
		WorkloadOperands: 1200,
		DASample:         100000,
	})
	if err != nil {
		panic(err)
	}
	return NewEnv(f, Options{
		Scale:     workloads.Tiny,
		Runs:      12,
		Fig4Paths: 300,
		Fig6Full:  2400,
		Fig6Ks:    []int{150, 1200},
		Fig6Reps:  6,
	})
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	for _, want := range []string{"DA-model", "IA-model", "WA-model", "fixed probability"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table I missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("expected 7 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Instructions == 0 || r.FPShare <= 0 || r.Criteria == "" {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "k-means") {
		t.Fatal("render missing benchmark")
	}
}

func TestFig4OnlyFPUPathsInTail(t *testing.T) {
	r, err := Fig4(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPaths != testEnv.Opts.Fig4Paths {
		t.Fatalf("got %d paths", r.NumPaths)
	}
	// The paper's Figure 4 message: the low-slack tail is entirely FPU.
	if r.ByGroup["alu"] != 0 {
		t.Fatalf("integer paths in the longest-path tail: %v", r.ByGroup)
	}
	var fpuPaths int
	for g, c := range r.ByGroup {
		if strings.HasPrefix(g, "fpu/") {
			fpuPaths += c
		}
	}
	if fpuPaths != r.NumPaths {
		t.Fatalf("non-FPU paths present: %v", r.ByGroup)
	}
	if r.ByGroup["fpu/fp-mul.d"] == 0 {
		t.Fatal("multiplier paths missing from the tail")
	}
	if r.MinSlack < 0 || r.MinSlack > r.CLK {
		t.Fatalf("min slack %v", r.MinSlack)
	}
	if r.IntWorst >= r.CLK/1.256 {
		t.Fatal("integer paths must clear even the VR20 threshold")
	}
	var buf bytes.Buffer
	RenderFig4(&buf, r)
	if !strings.Contains(buf.String(), "fp-mul.d") {
		t.Fatal("render incomplete")
	}
}

func TestFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 DTA sweep")
	}
	r, err := Fig5(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	// At VR20 there must be observed faults, and fractions sum to 1.
	if _, ok := r.One["VR20"]; !ok {
		t.Fatal("no VR20 fault statistics")
	}
	sum := r.One["VR20"] + r.Two["VR20"] + r.More["VR20"]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v", sum)
	}
	var buf bytes.Buffer
	RenderFig5(&buf, r)
	if !strings.Contains(buf.String(), "multi-bit") {
		t.Fatal("render incomplete")
	}
}

func TestFig6Structure(t *testing.T) {
	// At Tiny scale the is benchmark yields too few faulty fp-mul
	// instructions for the AE ordering to be statistically meaningful
	// (the paper's convergence claim is checked at experiment scale in
	// EXPERIMENTS.md); here we validate the machinery.
	r, err := Fig6(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AE) != 2 {
		t.Fatalf("expected 2 sample sizes, got %d", len(r.AE))
	}
	for k, ae := range r.AE {
		if ae < 0 {
			t.Fatalf("negative AE for K=%d", k)
		}
	}
	if len(r.FullBER) != 64 {
		t.Fatalf("full BER width %d", len(r.FullBER))
	}
	var any bool
	for _, b := range r.FullBER {
		if b < 0 || b > 1 {
			t.Fatalf("BER out of range: %v", b)
		}
		any = any || b > 0
	}
	if !any {
		t.Fatal("full-trace BER all zero: no VR20 faults observed at all")
	}
	var buf bytes.Buffer
	RenderFig6(&buf, r)
	if !strings.Contains(buf.String(), "mean absolute BER error") {
		t.Fatal("render incomplete")
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("IA characterization")
	}
	r, err := Fig7(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	find := func(lv string, op string) BERProfile {
		for _, p := range r[lv] {
			if p.Op.String() == op {
				return p
			}
		}
		t.Fatalf("missing %s at %s", op, lv)
		return BERProfile{}
	}
	mul20 := find("VR20", "fp-mul.d")
	if mul20.ER == 0 {
		t.Fatal("fp-mul.d must fail at VR20")
	}
	for _, p := range r["VR20"] {
		if p.ER > mul20.ER {
			t.Fatalf("%s more error-prone than fp-mul.d", p.Op)
		}
	}
	// Conversions and single precision stay error-free.
	for _, op := range []string{"i2f.d", "f2i.d", "fp-mul.s", "fp-add.s"} {
		if p := find("VR20", op); p.ER != 0 {
			t.Fatalf("%s should be error-free: %v", op, p.ER)
		}
	}
	// Mantissa bits dominate exponent bits.
	if mul20.MantissaBER <= mul20.ExponentBER {
		t.Fatalf("mantissa BER %v not above exponent BER %v",
			mul20.MantissaBER, mul20.ExponentBER)
	}
	var buf bytes.Buffer
	RenderFig7(&buf, r)
	if !strings.Contains(buf.String(), "fp-mul.d") {
		t.Fatal("render incomplete")
	}
}

func TestFig8WorkloadDependence(t *testing.T) {
	r, err := Fig8(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	vr20 := r["VR20"]
	if len(vr20) != 7 {
		t.Fatalf("expected 7 benchmarks, got %d", len(vr20))
	}
	// Different workloads must show different fp-mul.d ratios at VR20
	// (the paper's central observation).
	ers := map[string]float64{}
	for name, profiles := range vr20 {
		for _, p := range profiles {
			if p.Op.String() == "fp-mul.d" {
				ers[name] = p.ER
			}
		}
	}
	if len(ers) < 2 {
		t.Skip("too few benchmarks with fp-mul.d")
	}
	distinct := map[float64]bool{}
	for _, er := range ers {
		distinct[er] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all workloads show identical fp-mul.d ER: %v", ers)
	}
	var buf bytes.Buffer
	RenderFig8(&buf, r)
	if buf.Len() == 0 {
		t.Fatal("render empty")
	}
}

func TestCampaignFiguresEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign cross product")
	}
	cs, err := RunCampaigns(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Cells) != 7*2*3 {
		t.Fatalf("expected 42 cells, got %d", len(cs.Cells))
	}
	// Every cell's outcomes sum to the run count.
	for key, r := range cs.Cells {
		var total int
		for _, c := range r.Outcomes {
			total += c
		}
		if total != testEnv.Opts.Runs {
			t.Fatalf("%s outcomes sum %d", key, total)
		}
	}

	f10, err := Fig10(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	// DA's fixed ratio must diverge from WA's workload-specific ratios.
	if f10.DAAvgFold <= 1 {
		t.Fatalf("DA/WA divergence %v should exceed 1x", f10.DAAvgFold)
	}

	avm, err := AVMAnalysis(testEnv, cs)
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range avm.AVM {
		if v < 0 || v > 1 {
			t.Fatalf("AVM %s = %v out of range", key, v)
		}
	}

	var buf bytes.Buffer
	RenderFig9(&buf, cs)
	RenderFig10(&buf, cs.Order, f10)
	RenderAVM(&buf, testEnv, cs, avm)
	out := buf.String()
	for _, want := range []string{"Figure 9", "Figure 10", "Vulnerability", "divergence"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	_ = campaign.Masked
	_ = errmodel.DA
}

func TestSourcesExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("delay-source sweep")
	}
	rows, err := Sources(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SourceRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["nominal"].ER != 0 {
		t.Fatalf("nominal corner must be error free: %+v", byName["nominal"])
	}
	if byName["VR20"].ER == 0 {
		t.Fatal("VR20 must show fp-mul errors")
	}
	// 1.20x overclock inflates delays about as much as VR15 and must not
	// be error-free either.
	if byName["1.20x clock"].ER == 0 {
		t.Fatal("deep overclocking should produce errors")
	}
	// Mild single stresses stay clean; scales are ordered sensibly.
	if byName["85C"].Scale >= byName["125C"].Scale {
		t.Fatal("temperature scale ordering")
	}
	if byName["aging 3y"].Scale >= byName["aging 7y"].Scale {
		t.Fatal("aging scale ordering")
	}
	var buf bytes.Buffer
	RenderSources(&buf, rows)
	if !strings.Contains(buf.String(), "delay-increase sources") {
		t.Fatal("render incomplete")
	}
}

func TestPowerExtension(t *testing.T) {
	r, err := Power(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerWorkload) != 7 {
		t.Fatalf("expected 7 workload breakdowns, got %d", len(r.PerWorkload))
	}
	for name, b := range r.PerWorkload {
		if b.FPUShare <= 0 || b.FPUShare >= 1 {
			t.Fatalf("%s FPU share %v out of range", name, b.FPUShare)
		}
	}
	// srad (the most FP-intensive benchmark) must show a major FP share.
	if r.PerWorkload["srad_v1"].FPUShare < 0.3 {
		t.Fatalf("srad FPU share %v below the paper's >30%% observation",
			r.PerWorkload["srad_v1"].FPUShare)
	}
	var buf bytes.Buffer
	RenderPower(&buf, r)
	if !strings.Contains(buf.String(), "fJ") {
		t.Fatal("render incomplete")
	}
}

func TestHistoryAblation(t *testing.T) {
	rows, err := HistoryAblation(testEnv, vscale.VR20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 ops, got %d", len(rows))
	}
	var anyDiff bool
	for _, r := range rows {
		if r.WithHistory != r.FixedHistory {
			anyDiff = true
		}
	}
	if !anyDiff {
		t.Fatal("history ablation shows no sensitivity at all")
	}
	var buf bytes.Buffer
	RenderHistory(&buf, "VR20", rows)
	if !strings.Contains(buf.String(), "history") {
		t.Fatal("render incomplete")
	}
}

func TestProcessVariation(t *testing.T) {
	if testing.Short() {
		t.Skip("process-variation sweep")
	}
	r, err := ProcessVariation(testEnv, 4, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ERs) != 4 {
		t.Fatalf("die count %d", len(r.ERs))
	}
	distinct := map[float64]bool{}
	for _, er := range r.ERs {
		if er < 0 || er > 1 {
			t.Fatalf("ER %v out of range", er)
		}
		distinct[er] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("dies indistinguishable: %v", r.ERs)
	}
	var buf bytes.Buffer
	RenderProcess(&buf, r)
	if !strings.Contains(buf.String(), "die-to-die") {
		t.Fatal("render incomplete")
	}
	if _, err := ProcessVariation(testEnv, 0, 0.03); err == nil {
		t.Fatal("zero dies must error")
	}
}

func TestCSVExports(t *testing.T) {
	dir := t.TempDir()
	rows, err := Table2(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if err := CSVTable2(dir, rows); err != nil {
		t.Fatal(err)
	}
	f4, err := Fig4(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if err := CSVFig4(dir, f4); err != nil {
		t.Fatal(err)
	}
	f5, err := Fig5(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if err := CSVFig5(dir, f5); err != nil {
		t.Fatal(err)
	}
	f7, err := Fig7(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if err := CSVFig7(dir, f7); err != nil {
		t.Fatal(err)
	}
	f10, err := Fig10(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if err := CSVFig10(dir, workloads.Names(), f10); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table2.csv", "fig4.csv", "fig5.csv", "fig7.csv", "fig10.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) < 2 {
			t.Fatalf("%s has no data rows", name)
		}
		for i, rec := range recs {
			if len(rec) != len(recs[0]) {
				t.Fatalf("%s row %d has %d cols, want %d", name, i, len(rec), len(recs[0]))
			}
		}
	}
}

func TestValidateModels(t *testing.T) {
	if testing.Short() {
		t.Skip("model validation sweep")
	}
	rows, meanErr, err := Validate(testEnv, vscale.VR20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("nothing validated")
	}
	for _, r := range rows {
		if r.Predicted <= 0 {
			t.Fatalf("validated a zero-rate op: %+v", r)
		}
	}
	// With characterization and validation drawn from the same trace
	// pools, predictions must track the re-measured values to well within
	// an order of magnitude on average.
	if meanErr > 1.0 {
		t.Fatalf("mean relative prediction error %.2f too large", meanErr)
	}
	var buf bytes.Buffer
	RenderValidate(&buf, "VR20", rows, meanErr)
	if !strings.Contains(buf.String(), "prediction error") {
		t.Fatal("render incomplete")
	}
}

func TestDesignReport(t *testing.T) {
	rows, err := Design(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 12*3 {
		t.Fatalf("too few stage rows: %d", len(rows))
	}
	var maxShare float64
	var addStages int
	for _, r := range rows {
		if r.Gates <= 0 || r.DelayPS <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.CLKShare > maxShare {
			maxShare = r.CLKShare
		}
		if r.Op.String() == "fp-add.d" {
			addStages++
		}
	}
	if addStages != 6 {
		t.Fatalf("fp-add.d should report 6 stages (Figure 3), got %d", addStages)
	}
	if maxShare < 0.999 || maxShare > 1.001 {
		t.Fatalf("critical stage share %v should be 1.0 (Eq. 1)", maxShare)
	}
	var buf bytes.Buffer
	RenderDesign(&buf, testEnv, rows)
	if !strings.Contains(buf.String(), "s4-cpa") {
		t.Fatal("render incomplete")
	}
}

// TestDesignRowsMatchSTA: the design report, which reads the stage
// delays the FPU kept from calibration, gives the rows a fresh STA and
// netlist statistics of every stage give, bit for bit.
func TestDesignRowsMatchSTA(t *testing.T) {
	rows, err := Design(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	var want []DesignRow
	clk := testEnv.F.FPU.CLK
	for _, op := range fpu.Ops() {
		p := testEnv.F.FPU.Pipeline(op)
		reports := p.STA()
		for i, s := range p.Stages {
			st := s.N.Stats()
			want = append(want, DesignRow{
				Op: op, Stage: s.Name, Repeat: s.Repeat,
				Gates: st.Gates, Depth: st.MaxDepth,
				DelayPS: reports[i].WorstDelay, CLKShare: reports[i].WorstDelay / clk,
			})
		}
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("design rows differ from the STA-derived ones:\n%+v\nwant\n%+v", rows, want)
	}
}

func TestAdderAblation(t *testing.T) {
	rows, err := AdderAblation(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AdderRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Gates <= 0 || r.STAps <= 0 || r.MeanArr <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.MaxArr > r.STAps+1e-9 {
			t.Fatalf("%s: dynamic max %v exceeds STA bound %v", r.Name, r.MaxArr, r.STAps)
		}
	}
	// Architecture ordering: ripple has by far the longest static bound;
	// the prefix adder the shortest.
	if byName["ripple"].STAps <= byName["hybrid-16"].STAps {
		t.Fatal("ripple should be statically slowest")
	}
	if byName["kogge-stone"].STAps >= byName["hybrid-8"].STAps {
		t.Fatal("kogge-stone should be statically fastest")
	}
	// The static-dynamic gap is the discriminator: ripple's mean dynamic
	// arrival sits far below its own STA bound, while the prefix adder's
	// dynamic behaviour hugs its bound (high fail rate at 85%).
	rippleGap := byName["ripple"].MeanArr / byName["ripple"].STAps
	prefixGap := byName["kogge-stone"].MeanArr / byName["kogge-stone"].STAps
	if rippleGap >= prefixGap {
		t.Fatalf("ripple relative arrival %v should be below prefix %v", rippleGap, prefixGap)
	}
	if byName["kogge-stone"].FailAt85 <= byName["ripple"].FailAt85 {
		t.Fatal("prefix adder should miss a tightened deadline far more often than ripple")
	}
	var buf bytes.Buffer
	RenderAdders(&buf, rows)
	if !strings.Contains(buf.String(), "hybrid") {
		t.Fatal("render incomplete")
	}
}

// TestFixedHistoryMatchesSerialLoop: the fixed-history half of the
// ablation runs as one interleaved DTA stream, sharded over workers, and
// must reproduce record for record an analyzer that re-warms with the
// reference pair before every instruction.
func TestFixedHistoryMatchesSerialLoop(t *testing.T) {
	scale := testEnv.F.Volt.ScaleFor(vscale.VR20)
	ref := dta.Pair{A: 0x3FF0000000000000, B: 0x3FF0000000000000}
	for _, eng := range []dta.Engine{dta.EngineWide, dta.EngineExact} {
		n := 300
		if eng == dta.EngineExact {
			if testing.Short() {
				continue
			}
			n = 40
		}
		e := NewEnv(&core.Framework{Cfg: core.Config{Timing: eng, Workers: 3}, FPU: testEnv.F.FPU}, testEnv.Opts)
		for _, op := range []fpu.Op{fpu.DMul, fpu.DSub, fpu.DAdd} {
			src := prng.New(uint64(op) + 1)
			pairs := make([]dta.Pair, n)
			for i := range pairs {
				pairs[i] = dta.Pair{A: src.Uint64(), B: src.Uint64()}
			}
			got, err := fixedHistoryRecords(e, op, scale, pairs)
			if err != nil {
				t.Fatal(err)
			}
			a := dta.New(testEnv.F.FPU, op, scale, eng, dta.Outcome)
			for i, p := range pairs {
				a.Warm(ref)
				if want := a.Analyze(p); got[i] != want {
					t.Fatalf("%s %s: record %d:\n  stream %+v\n  serial %+v", eng, op, i, got[i], want)
				}
			}
		}
	}
}
