package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"teva/internal/campaign"
	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/fpu"
	"teva/internal/obs"
	"teva/internal/trace"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// testFramework is shared across tests; characterization sizes are kept
// small for test speed.
var testFramework = mustFramework()

func mustFramework() *Framework {
	f, err := New(Config{
		Seed:             0xF00D,
		RandomOperands:   3000,
		WorkloadOperands: 1500,
		DASample:         100000,
	})
	if err != nil {
		panic(err)
	}
	return f
}

// randomSums runs RandomSummariesCtx to completion.
func randomSums(t *testing.T, f *Framework, level vscale.VRLevel) map[fpu.Op]*dta.Summary {
	t.Helper()
	sums, err := f.RandomSummariesCtx(context.Background(), level)
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

func TestFrameworkConstruction(t *testing.T) {
	f := testFramework
	if f.FPU == nil || f.FPU.Lib == nil {
		t.Fatal("substrate missing")
	}
	if f.FPU.CLK != fpu.DefaultCLK {
		t.Fatalf("clock %v", f.FPU.CLK)
	}
	if err := f.Volt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	f, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultConfig()
	if f.Cfg.RandomOperands != d.RandomOperands || f.Cfg.Seed != d.Seed {
		t.Fatalf("defaults not applied: %+v", f.Cfg)
	}
}

func TestRandomSummariesCachedAndShaped(t *testing.T) {
	if testing.Short() {
		t.Skip("random characterization")
	}
	f := testFramework
	s1 := randomSums(t, f, vscale.VR20)
	s2 := randomSums(t, f, vscale.VR20)
	if s1[fpu.DMul] != s2[fpu.DMul] {
		t.Fatal("summaries not cached")
	}
	if s1[fpu.DMul].ErrorRatio() == 0 {
		t.Fatal("fp-mul.d must show VR20 errors")
	}
	if s1[fpu.SI2F].ErrorRatio() != 0 {
		t.Fatal("single-precision conversion must be error-free")
	}
}

// capturedTrace memoizes the is trace for the end-to-end tests.
var capturedTrace *trace.Trace

func isTrace(t *testing.T) *trace.Trace {
	t.Helper()
	if capturedTrace != nil {
		return capturedTrace
	}
	w, err := workloads.ByName("is", workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := testFramework.CaptureTrace(w)
	if err != nil {
		t.Fatal(err)
	}
	capturedTrace = tr
	return tr
}

func TestDevelopDA(t *testing.T) {
	f := testFramework
	tr := isTrace(t)
	da, err := f.DevelopDACtx(context.Background(), vscale.VR20, []*trace.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if da.Kind() != errmodel.DA || da.Level() != "VR20" {
		t.Fatal("DA metadata")
	}
	// is runs plenty of fp-mul.d, which fails at VR20, so the mixed
	// ratio must be positive but heavily diluted by integer work.
	mulER := randomSums(t, f, vscale.VR20)[fpu.DMul].ErrorRatio()
	if da.ER <= 0 || da.ER >= mulER {
		t.Fatalf("DA ER %v not in (0, %v)", da.ER, mulER)
	}
	if _, err := f.DevelopDACtx(context.Background(), vscale.VR20, nil); err == nil {
		t.Fatal("empty trace list must error")
	}
}

func TestDevelopIA(t *testing.T) {
	ia, err := testFramework.DevelopIACtx(context.Background(), vscale.VR20)
	if err != nil {
		t.Fatal(err)
	}
	if ia.Level() != "VR20" {
		t.Fatal("level")
	}
	if ia.PerOp[fpu.DMul].ER == 0 {
		t.Fatal("IA must characterize fp-mul.d errors at VR20")
	}
	if ia.PerOp[fpu.SI2F].ER != 0 {
		t.Fatal("IA must see no errors for i2f.s")
	}
	// Conditional bit probabilities live in [0,1] and include a set bit.
	probs := ia.PerOp[fpu.DMul].BitProb
	var anyPos bool
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("bit probability %v out of range", p)
		}
		anyPos = anyPos || p > 0
	}
	if !anyPos {
		t.Fatal("no error-prone bits recorded")
	}
}

func TestDevelopWA(t *testing.T) {
	f := testFramework
	tr := isTrace(t)
	wa, err := f.DevelopWACtx(context.Background(), vscale.VR20, tr)
	if err != nil {
		t.Fatal(err)
	}
	if wa.Workload != "is" || wa.Level() != "VR20" {
		t.Fatal("WA metadata")
	}
	// is's randlc multiplications operate on large integral doubles whose
	// products excite the multiplier; the model must capture a workload-
	// specific ratio (positive, different from the IA random-operand one).
	ia, err := f.DevelopIACtx(context.Background(), vscale.VR20)
	if err != nil {
		t.Fatal(err)
	}
	waER := wa.PerOp[fpu.DMul].ER
	iaER := ia.PerOp[fpu.DMul].ER
	if waER == 0 {
		t.Fatal("WA fp-mul.d ER should be nonzero for is at VR20")
	}
	if waER == iaER {
		t.Fatal("WA and IA ratios should differ (workload dependence)")
	}
	if len(wa.PerOp[fpu.DMul].Masks) == 0 {
		t.Fatal("WA mask pool empty")
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end campaign")
	}
	f := testFramework
	w, err := workloads.ByName("is", workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	tr := isTrace(t)
	wa, err := f.DevelopWACtx(context.Background(), vscale.VR20, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.EvaluateCtx(context.Background(), w, wa, 24)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 24 {
		t.Fatalf("runs %d", res.Runs)
	}
	var total int
	for _, c := range res.Outcomes {
		total += c
	}
	if total != 24 {
		t.Fatalf("outcomes don't sum to runs: %v", res.Outcomes)
	}
	if res.RunsWithInjection == 0 {
		t.Fatal("VR20 WA campaign on is should inject errors")
	}
	if res.Model != errmodel.WA || res.Level != "VR20" || res.Workload != "is" {
		t.Fatalf("result identity: %+v", res)
	}
	_ = campaign.Masked
}

// TestGoldenRunMemoizedPerWorkload checks that a framework executes each
// workload's golden run once, however many cells (of either discipline,
// concurrently) evaluate it: campaign.golden_runs counts executions.
func TestGoldenRunMemoizedPerWorkload(t *testing.T) {
	reg := obs.NewRegistry(nil)
	f := &Framework{
		Cfg:         Config{Seed: 1, Workers: 1, Metrics: reg},
		randomCalls: map[string]*flight[map[fpu.Op]*dta.Summary]{},
		goldens:     map[*workloads.Workload]*flight[*campaign.Golden]{},
	}
	var ws []*workloads.Workload
	for _, name := range []string{"cg", "is"} {
		w, err := workloads.ByName(name, workloads.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	m := errmodel.BuildDA("VR20", 1, 1000)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				_, err = f.EvaluateSingleCtx(context.Background(), ws[i%len(ws)], m, 2)
			} else {
				_, err = f.EvaluateCtx(context.Background(), ws[i/3], m, 2)
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if cells, golden := snap.Counter(campaign.MetricCells), snap.Counter(campaign.MetricGoldenRuns); cells != 6 || golden != 2 {
		t.Fatalf("%d cells ran %d golden executions, want 6 cells and 2 (one per workload)", cells, golden)
	}
}

// TestSharedDesignTraceMemo checks that frameworks on one design share
// its benchmark-set and trace memos: concurrent calls build one set per
// scale and capture one workload once, handing every framework the same
// set and trace, while a different operand cap or a different workload
// source is a capture of its own.
func TestSharedDesignTraceMemo(t *testing.T) {
	// The memos never read the FPU, so the design needs none.
	d := &Design{
		Seed:   1,
		sets:   map[workloads.Scale]*flight[[]*workloads.Workload]{},
		traces: map[traceKey]*flight[*trace.Trace]{},
	}
	var fws []*Framework
	for _, wo := range []int{100, 4096, 5000} {
		f, err := NewOn(d, Config{Seed: 1, WorkloadOperands: wo})
		if err != nil {
			t.Fatal(err)
		}
		fws = append(fws, f)
	}
	tiny, err := workloads.ByName("is", workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	small, err := workloads.ByName("is", workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	got := make([]*trace.Trace, callers)
	sets := make([][]*workloads.Workload, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := fws[i%2].CaptureTrace(tiny) // caps 4096 and max(4096, 100)
			if err != nil {
				t.Error(err)
			}
			got[i] = tr
			if sets[i], err = fws[i%3].Workloads(workloads.Tiny); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("caller %d got trace %p, caller 0 %p", i, tr, got[0])
		}
		if len(sets[i]) == 0 || &sets[i][0] != &sets[0][0] {
			t.Fatalf("caller %d got another benchmark set", i)
		}
	}
	if n := d.Captures(); n != 1 {
		t.Fatalf("%d captures for one key, want 1", n)
	}
	if n := d.WorkloadBuilds(); n != 1 {
		t.Fatalf("%d benchmark-set builds for one scale, want 1", n)
	}
	if ws, err := fws[0].Workloads(workloads.Small); err != nil || &ws[0] == &sets[0][0] || d.WorkloadBuilds() != 2 {
		t.Fatalf("another scale must build its own set: %d builds, want 2 (err %v)", d.WorkloadBuilds(), err)
	}
	other, err := fws[2].CaptureTrace(tiny)
	if err != nil {
		t.Fatal(err)
	}
	larger, err := fws[0].CaptureTrace(small)
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0] || larger == got[0] || d.Captures() != 3 {
		t.Fatalf("a new cap or source must capture anew: %d captures, want 3", d.Captures())
	}
	if _, err := NewOn(d, Config{Seed: 2}); err == nil {
		t.Fatal("NewOn accepted a config for another seed")
	}
}

// TestSingleFlightPanicIsNotKept: the caller that ran a panicking
// computation sees the panic, a caller racing it sees either an error or
// its own fresh value, never a zero value with a nil error, and the next
// call computes afresh.
func TestSingleFlightPanicIsNotKept(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]*flight[int]{}
	started, release := make(chan struct{}), make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		<-started
		close(release)
		v, err := singleFlight(&mu, calls, "k", tally{}, func() (int, error) { return 2, nil })
		if err == nil && v != 2 {
			err = fmt.Errorf("got %d with no error", v)
		}
		waiter <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the computing caller did not see the panic")
			}
		}()
		singleFlight(&mu, calls, "k", tally{}, func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	if err := <-waiter; err != nil && err != errFlightPanicked {
		t.Fatalf("waiter: %v", err)
	}
	v, err := singleFlight(&mu, calls, "k", tally{}, func() (int, error) { return 3, nil })
	if err != nil || (v != 3 && v != 2) {
		t.Fatalf("after a panic: %d, %v; want a fresh value", v, err)
	}
}

// TestWorkloadSummariesSingleFlightCancel: concurrent WorkloadSummariesCtx
// calls on one (level, trace) analyze the trace once and share the
// result, and a canceled call is not kept, so the next call characterizes
// afresh. With no store, dta.pairs_analyzed counts every pass.
func TestWorkloadSummariesSingleFlightCancel(t *testing.T) {
	reg := obs.NewRegistry(nil)
	f, err := NewOn(testFramework.design, Config{Seed: 0xF00D, WorkloadOperands: 300, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	tr := isTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.WorkloadSummariesCtx(ctx, vscale.VR20, tr); err != context.Canceled {
		t.Fatalf("canceled call: %v, want context.Canceled", err)
	}
	const callers = 4
	got := make([]map[fpu.Op]*dta.Summary, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums, err := f.WorkloadSummariesCtx(context.Background(), vscale.VR20, tr)
			if err != nil {
				t.Error(err)
			}
			got[i] = sums
		}(i)
	}
	wg.Wait()
	var onePass int64
	for _, op := range fpu.Ops() {
		if len(tr.Pairs[op]) > 0 {
			onePass += int64(max(opOperands(op, f.Cfg.WorkloadOperands), 1))
		}
	}
	for i, sums := range got {
		if len(sums) == 0 || sums[fpu.DMul] == nil || sums[fpu.DMul] != got[0][fpu.DMul] {
			t.Fatalf("caller %d got summaries %v, caller 0 %v", i, sums, got[0])
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counter(dta.MetricPairs); n != onePass {
		t.Fatalf("%s = %d, want one pass of %d", dta.MetricPairs, n, onePass)
	}
	// The canceled call and the first concurrent one each created a slot.
	if h, m := snap.Counter(MetricMemoHits), snap.Counter(MetricMemoMisses); h != callers-1 || m != 2 {
		t.Fatalf("memo hits %d, misses %d; want %d and 2", h, m, callers-1)
	}
}
