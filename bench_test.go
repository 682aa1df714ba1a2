// Package teva's root benchmark harness: one testing.B benchmark per
// table and figure of the paper (wired to the same code paths the
// teva-experiments binary uses), plus component benchmarks for the
// substrates (gate-level timing simulation, DTA, the CPU model, the
// assembler). Run with:
//
//	go test -bench=. -benchmem
package teva

import (
	"context"
	"io"
	"math/bits"
	"sync"
	"testing"
	"time"

	"teva/internal/campaign"
	"teva/internal/core"
	"teva/internal/cpu"
	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/experiments"
	"teva/internal/fpu"
	"teva/internal/isa"
	"teva/internal/logicsim"
	"teva/internal/prng"
	"teva/internal/sta"
	"teva/internal/timingsim"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// Shared environment: built once, sized so individual benchmark
// iterations are meaningful but quick.
var (
	envOnce sync.Once
	benv    *experiments.Env
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		f, err := core.New(core.Config{
			Seed:             0xF00D,
			RandomOperands:   2000,
			WorkloadOperands: 1200,
			DASample:         100000,
		})
		if err != nil {
			panic(err)
		}
		benv = experiments.NewEnv(f, experiments.Options{
			Scale:     workloads.Tiny,
			Runs:      12,
			Fig4Paths: 1000,
			Fig6Full:  2000,
			Fig6Ks:    []int{500},
			Fig6Reps:  1,
		})
	})
	return benv
}

// BenchmarkTable2Workloads measures the golden execution of the full
// benchmark suite (the data behind Table II).
func BenchmarkTable2Workloads(b *testing.B) {
	ws, err := workloads.All(workloads.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			c := cpu.New(w.Program, cpu.Config{TrapFPInvalid: true})
			res := c.Run(1 << 40)
			if res.Status != cpu.Halted {
				b.Fatalf("%s: %v", w.Name, res.Status)
			}
			instr += res.Instret
		}
	}
	b.ReportMetric(float64(instr)/float64(b.N), "instrs/op")
}

// BenchmarkFig4STA measures the 1000-longest-path enumeration.
func BenchmarkFig4STA(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(e)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkFig5FlipDistribution measures the DTA batch behind the
// bit-flip multiplicity histogram (per-op gate-level analysis).
func BenchmarkFig5FlipDistribution(b *testing.B) {
	e := benchEnv(b)
	src := prng.New(1)
	pairs := make([]dta.Pair, 200)
	for i := range pairs {
		pairs[i] = dta.Pair{A: src.Uint64(), B: src.Uint64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := dta.AnalyzeStream(context.Background(), e.F.FPU, fpu.DMul, e.F.Volt.ScaleFor(vscale.VR20), dta.EngineWide, dta.Outcome, pairs, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		dta.Summarize(fpu.DMul, recs)
	}
	b.ReportMetric(float64(len(pairs)), "dta-ops/op")
}

// BenchmarkFig6BERConvergence measures the sample-size study.
func BenchmarkFig6BERConvergence(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7IAModel measures instruction-aware model development
// (random-operand DTA across all 12 instructions).
func BenchmarkFig7IAModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Characterization is cached per level inside a framework, so
		// measure the cold pass on a fresh framework each iteration.
		f, err := core.New(core.Config{Seed: uint64(i) + 1, RandomOperands: 500})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.DevelopIACtx(context.Background(), vscale.VR20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8WAModel measures workload-aware model development for one
// benchmark (trace capture + workload DTA).
func BenchmarkFig8WAModel(b *testing.B) {
	e := benchEnv(b)
	w, err := workloads.ByName("is", workloads.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := e.F.CaptureTrace(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.F.DevelopWACtx(context.Background(), vscale.VR20, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Campaign measures one injection-campaign cell (golden run
// + injected runs + classification).
func BenchmarkFig9Campaign(b *testing.B) {
	e := benchEnv(b)
	w, err := workloads.ByName("sobel", workloads.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := e.F.CaptureTrace(w)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	wa, err := e.F.DevelopWACtx(ctx, vscale.VR20, tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.F.EvaluateCtx(ctx, w, wa, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10ErrorRatios measures the error-ratio/divergence math over
// a cached campaign set.
func BenchmarkFig10ErrorRatios(b *testing.B) {
	e := benchEnv(b)
	if _, err := experiments.Fig10(e); err != nil { // warm the model caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAVMAnalysis measures the Section V-C vulnerability analysis
// over a cached campaign set.
func BenchmarkAVMAnalysis(b *testing.B) {
	e := benchEnv(b)
	cs, err := experiments.RunCampaigns(e)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AVMAnalysis(e, cs)
		if err != nil {
			b.Fatal(err)
		}
		experiments.RenderAVM(io.Discard, e, cs, r)
	}
}

// ---------------------------------------------------------------------------
// Component benchmarks

// BenchmarkTimingSimFast measures the levelized timing engine on the
// multiplier CPA stage (the design's critical stage).
func BenchmarkTimingSimFast(b *testing.B) {
	benchTimingSim(b, false)
}

// BenchmarkTimingSimExact measures the event-driven engine on the same
// stage.
func BenchmarkTimingSimExact(b *testing.B) {
	benchTimingSim(b, true)
}

func benchTimingSim(b *testing.B, exact bool) {
	e := benchEnv(b)
	p := e.F.FPU.Pipeline(fpu.DMul)
	stage := p.Stages[3].N // s4-cpa
	var sim timingsim.Runner
	if exact {
		sim = timingsim.NewExact(stage.Compiled(), 1.256)
	} else {
		sim = timingsim.NewFast(stage.Compiled(), 1.256)
	}
	src := prng.New(7)
	prev := make([]bool, len(stage.Inputs()))
	cur := make([]bool, len(stage.Inputs()))
	for i := range prev {
		prev[i] = src.Bool()
		cur[i] = src.Bool()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(prev, cur, 85, 4400)
	}
	b.ReportMetric(float64(stage.NumGates()), "gates")
}

// BenchmarkTimingSimWide measures the 64-lane levelized timing engine on
// the same stage at VR20's delay scale, once timing every gate (full, what
// dta's Full records use) and once slack-pruned to the gates dta tracks
// at that scale (pruned, the default); ns/transition counts all 64 lanes
// of each walk.
func BenchmarkTimingSimWide(b *testing.B) {
	e := benchEnv(b)
	const scale = 1.256
	b.Run("full", func(b *testing.B) { benchTimingSimWide(b, e, scale, nil) })
	b.Run("pruned", func(b *testing.B) {
		benchTimingSimWide(b, e, scale, dta.TrackedGates(e.F.FPU, fpu.DMul, scale)[3])
	})
}

func benchTimingSimWide(b *testing.B, e *experiments.Env, scale float64, track []uint64) {
	stage := e.F.FPU.Pipeline(fpu.DMul).Stages[3].N // s4-cpa
	sim := timingsim.NewWideFast(stage.Compiled(), scale)
	sim.Prune(track)
	lib := e.F.Lib
	inputArrival, deadline := lib.ClockToQ*scale, e.F.FPU.CLK-lib.Setup*scale
	src := prng.New(7)
	prev := make([]uint64, len(stage.Inputs()))
	cur := make([]uint64, len(stage.Inputs()))
	for i := range prev {
		prev[i] = src.Uint64()
		cur[i] = src.Uint64()
	}
	b.ReportAllocs()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(prev, cur, inputArrival, deadline)
	}
	b.StopTimer()
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*64), "ns/transition")
	b.ReportMetric(float64(stage.NumGates()), "gates")
	tracked := stage.NumGates()
	if track != nil {
		tracked = 0
		for _, w := range track {
			tracked += bits.OnesCount64(w)
		}
	}
	b.ReportMetric(float64(tracked), "tracked-gates")
}

// BenchmarkSTAForwardBackward measures the two-pass slack engine
// (forward arrival plus backward required-time propagation) across every
// stage of the double-precision multiplier pipeline, the design's
// deepest. One iteration is a full per-net slack characterization of the
// whole pipeline.
func BenchmarkSTAForwardBackward(b *testing.B) {
	e := benchEnv(b)
	p := e.F.FPU.Pipeline(fpu.DMul)
	lib := e.F.Lib
	clk := e.F.FPU.CLK
	var gates int
	for _, s := range p.Stages {
		gates += s.N.NumGates()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range p.Stages {
			r := sta.Analyze(s.N.Compiled(), lib.ClockToQ, lib.Setup)
			if r.WNS(clk) > clk {
				b.Fatal("impossible slack")
			}
		}
	}
	b.ReportMetric(float64(gates), "gates")
}

// BenchmarkLogicSim measures the scalar zero-delay functional engine on
// the multiplier CPA stage (one vector per circuit walk).
func BenchmarkLogicSim(b *testing.B) {
	e := benchEnv(b)
	stage := e.F.FPU.Pipeline(fpu.DMul).Stages[3].N // s4-cpa
	sim := logicsim.New(stage.Compiled())
	src := prng.New(7)
	in := make([]bool, len(stage.Inputs()))
	for i := range in {
		in[i] = src.Bool()
	}
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(in)
	}
	b.StopTimer()
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), "ns/vector")
}

// BenchmarkLogicSimWide measures the 64-wide bit-parallel engine on the
// same stage; ns/vector counts all 64 lanes of each walk.
func BenchmarkLogicSimWide(b *testing.B) {
	e := benchEnv(b)
	stage := e.F.FPU.Pipeline(fpu.DMul).Stages[3].N // s4-cpa
	sim := logicsim.NewWide(stage.Compiled())
	src := prng.New(7)
	in := make([]uint64, len(stage.Inputs()))
	for i := range in {
		in[i] = src.Uint64()
	}
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(in)
	}
	b.StopTimer()
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*64), "ns/vector")
}

// BenchmarkDTAStreamFAdd measures the sharded DTA stream over 256 fp-add
// operand pairs on one worker (the characterization hot loop; the golden
// side runs 64 pairs per circuit walk).
func BenchmarkDTAStreamFAdd(b *testing.B) {
	e := benchEnv(b)
	src := prng.New(11)
	pairs := make([]dta.Pair, 256)
	for i := range pairs {
		pairs[i] = dta.Pair{A: src.Uint64(), B: src.Uint64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dta.AnalyzeStream(context.Background(), e.F.FPU, fpu.DAdd, e.F.Volt.ScaleFor(vscale.VR20), dta.EngineWide, dta.Outcome, pairs, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pairs)), "dta-ops/op")
}

// BenchmarkGateLevelDTA measures full-pipeline dynamic timing analysis
// (both golden and undervolted instances, all stages) the way
// characterization consumes it: 64 consecutive instructions per batch,
// one 64-lane circuit walk per pipeline cycle. ns/op is one batch;
// dta-ops/op normalizes to instructions.
func BenchmarkGateLevelDTA(b *testing.B) {
	e := benchEnv(b)
	a := dta.New(e.F.FPU, fpu.DMul, e.F.Volt.ScaleFor(vscale.VR20), dta.EngineWide, dta.Outcome)
	src := prng.New(9)
	pairs := make([]dta.Pair, 64)
	recs := make([]dta.Record, len(pairs))
	for i := range pairs {
		pairs[i] = dta.Pair{A: src.Uint64(), B: src.Uint64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AnalyzeBatch(pairs, recs)
	}
	b.ReportMetric(float64(len(pairs)), "dta-ops/op")
}

// BenchmarkGateLevelDTASingle measures single-instruction Analyze latency
// (a one-lane wide walk — the worst case for the wide engine; batching is
// the intended usage).
func BenchmarkGateLevelDTASingle(b *testing.B) {
	e := benchEnv(b)
	a := dta.New(e.F.FPU, fpu.DMul, e.F.Volt.ScaleFor(vscale.VR20), dta.EngineWide, dta.Outcome)
	src := prng.New(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Analyze(dta.Pair{A: src.Uint64(), B: src.Uint64()})
	}
}

// BenchmarkCPUSimulator measures raw simulation speed on the sobel
// benchmark: one CPU, Reset between runs as a campaign worker reuses its
// simulator, so the 16 MiB memory is allocated and zeroed once.
func BenchmarkCPUSimulator(b *testing.B) {
	w, err := workloads.ByName("sobel", workloads.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	c := cpu.New(w.Program, cpu.Config{TrapFPInvalid: true})
	b.ResetTimer()
	var instr int64
	for i := 0; i < b.N; i++ {
		c.Reset()
		res := c.Run(1 << 40)
		instr += res.Instret
	}
	b.ReportMetric(float64(instr)/float64(b.N), "instrs/op")
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkCPUWithInjection measures the injection overhead of a
// writeback hook relative to BenchmarkCPUSimulator.
func BenchmarkCPUWithInjection(b *testing.B) {
	w, err := workloads.ByName("sobel", workloads.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	m := errmodel.BuildDA("VR20", 1, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj := m.NewInjector(prng.New(uint64(i)))
		c := cpu.New(w.Program, cpu.Config{Injector: inj})
		// Bounded budget: an injected error can livelock the program (the
		// campaign layer's Timeout class), so never run open-ended here.
		c.Run(2_000_000)
	}
}

// BenchmarkAssembler measures two-pass assembly of the largest generated
// workload source.
func BenchmarkAssembler(b *testing.B) {
	w, err := workloads.ByName("k-means", workloads.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isa.Assemble(w.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFPUConstruction measures generating and calibrating the whole
// gate-level FPU.
func BenchmarkFPUConstruction(b *testing.B) {
	e := benchEnv(b)
	lib := e.F.Lib
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fpu.New(lib, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = campaign.Masked
