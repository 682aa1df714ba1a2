// Package core is the paper's primary contribution: the cross-layer
// timing-error injection framework. It wires the circuit layer (gate-level
// FPU + dynamic timing analysis at a voltage corner) to the
// microarchitecture layer (workload execution, operand tracing, error
// injection) through the two phases of Figure 2:
//
//   - Model development: run DTA over operand streams (uniformly random
//     for the DA/IA models, workload-extracted for the WA model) and
//     build the corresponding injection models.
//   - Application evaluation: run statistical injection campaigns with
//     those models and classify outcomes (Masked/SDC/Crash/Timeout),
//     yielding error ratios (Eq. 2) and the Application Vulnerability
//     Metric (Eq. 4).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"teva/internal/alu"
	"teva/internal/artifact"
	"teva/internal/campaign"
	"teva/internal/cell"
	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/fpu"
	"teva/internal/obs"
	"teva/internal/prng"
	"teva/internal/trace"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// Config parameterizes the framework. Every field except the two runtime
// handles (Artifacts, Metrics) marshals to JSON: together with
// experiments.Options, a resolved Config is the serializable description
// of a run that shard workers rebuild and serve job IDs hash.
type Config struct {
	// Seed drives design generation and every stochastic step.
	Seed uint64
	// RandomOperands is the DTA sample size per instruction type for the
	// IA model (the paper uses 1M; the default here is laptop-scale).
	RandomOperands int
	// WorkloadOperands is the DTA sample size per instruction type per
	// benchmark for the WA model.
	WorkloadOperands int
	// DASample is the mixed-instruction Monte-Carlo sample size for the
	// DA model's fixed ratio (the paper uses 10M).
	DASample int
	// Workers bounds DTA/campaign parallelism (0: GOMAXPROCS).
	Workers int
	// TimeoutFactor is the campaign timeout budget as a multiple of the
	// golden run's cycle count (0: campaign.Run's 2.0 default). Folded
	// into artifact cache keys — a different budget can reclassify runs
	// as Timeout, so cells from different factors must never alias.
	TimeoutFactor float64
	// Timing selects the reduced-voltage timing engine. The zero value is
	// dta.EngineWide (64-lane levelized, the fastest); dta.EngineExact is
	// the event-driven glitch-accurate engine. Only Exact() is folded into
	// artifact cache keys.
	Timing dta.Engine
	// Artifacts, when non-nil, persists DTA characterization summaries
	// across runs: a second run with the same seed and sample sizes
	// reloads every summary instead of re-simulating. A nil store
	// disables on-disk caching.
	Artifacts *artifact.Store `json:"-"`
	// Metrics, when non-nil, receives dta.*, campaign.* and
	// experiments.* counters plus phase timers from every framework
	// operation. A nil registry disables instrumentation at zero cost.
	Metrics *obs.Registry `json:"-"`
}

// DefaultConfig returns the scaled-down defaults.
func DefaultConfig() Config {
	return Config{
		Seed:             0xF00D,
		RandomOperands:   20000,
		WorkloadOperands: 8000,
		DASample:         200000,
	}
}

// Design is one seed's calibrated substrate plus memos of the integer
// unit, the benchmark sets built and the workload operand traces captured
// for it: the inputs Figure 2's flow builds once and then evaluates many
// times over.
// Everything it holds is a pure function of its seed, of a set's scale
// and of each trace's key, never of a run's configuration or metrics, so
// several frameworks (a server's concurrent jobs) may share one Design;
// the FPU's Scratch caches come along with it. Its methods are safe for
// concurrent use.
type Design struct {
	// Seed is the design seed the FPU was generated from.
	Seed uint64
	// FPU is the calibrated gate-level floating-point unit.
	FPU *fpu.FPU

	mu       sync.Mutex
	intUnit  map[struct{}]*flight[*alu.Unit] // one slot
	sets     map[workloads.Scale]*flight[[]*workloads.Workload]
	traces   map[traceKey]*flight[*trace.Trace]
	builds   atomic.Int64
	captures atomic.Int64
}

// traceKey is everything trace.Capture reads: the workload's name (the
// trace's label) and source (its program is assembled from it), the
// per-op operand cap and the sampling seed.
type traceKey struct {
	name, source string
	perOpCap     int
	seed         uint64
}

// NewDesign generates and calibrates the substrate for a design seed.
func NewDesign(seed uint64) (*Design, error) {
	f, err := fpu.New(cell.Default(), seed)
	if err != nil {
		return nil, err
	}
	return &Design{
		Seed:    seed,
		FPU:     f,
		intUnit: make(map[struct{}]*flight[*alu.Unit]),
		sets:    make(map[workloads.Scale]*flight[[]*workloads.Workload]),
		traces:  make(map[traceKey]*flight[*trace.Trace]),
	}, nil
}

// IntUnit returns the design's integer-side netlists (Figure 4's ALU and
// AGU paths), building them on first use while concurrent callers wait.
// A failed build is not kept. Callers must not modify the unit.
func (d *Design) IntUnit() (*alu.Unit, error) {
	return singleFlight(&d.mu, d.intUnit, struct{}{}, tally{}, func() (*alu.Unit, error) {
		return alu.New(d.FPU.Lib, d.Seed+0xA10)
	})
}

// Workloads returns the benchmark set at scale, building it on first use
// while concurrent callers wait. A failed build is not kept. Nothing
// outside the assembler writes to a Workload or its program, so every
// framework on the design reads the one set; callers must not modify it.
func (d *Design) Workloads(scale workloads.Scale) ([]*workloads.Workload, error) {
	return singleFlight(&d.mu, d.sets, scale, tally{}, func() ([]*workloads.Workload, error) {
		d.builds.Add(1)
		return workloads.All(scale)
	})
}

// WorkloadBuilds returns how many benchmark sets the design's memo has
// built, failed ones included: one per scale however many frameworks ask.
func (d *Design) WorkloadBuilds() int64 { return d.builds.Load() }

// Trace returns w's operand trace with up to perOpCap pairs per
// instruction type, sampled with seed, capturing it on first use while
// concurrent callers wait. A failed capture is not kept.
func (d *Design) Trace(w *workloads.Workload, perOpCap int, seed uint64) (*trace.Trace, error) {
	key := traceKey{name: w.Name, source: w.Source, perOpCap: perOpCap, seed: seed}
	return singleFlight(&d.mu, d.traces, key, tally{}, func() (*trace.Trace, error) {
		d.captures.Add(1)
		return trace.Capture(w, perOpCap, seed)
	})
}

// Captures returns how many trace captures the design's memo has run,
// failed ones included: with every caller sharing the memo, a trace key
// is captured once however many frameworks ask for it.
func (d *Design) Captures() int64 { return d.captures.Load() }

// Framework is an instantiated cross-layer toolflow. Its methods are safe
// for concurrent use: the experiment pipeline materializes many cells in
// parallel, and all of them funnel through the per-level characterization
// below.
type Framework struct {
	Cfg  Config
	FPU  *fpu.FPU
	Volt vscale.Model
	// design owns FPU and the memos; it may be shared with other
	// frameworks of the same seed (see NewOn).
	design *Design
	// Per-level random-operand summaries (shared by DA and IA),
	// per-(level, trace) workload summaries (the WA model's) and
	// per-workload golden runs, each built once with single-flight so
	// concurrent callers wait instead of duplicating the work. They live
	// and die with the framework; memo counts their lookups.
	mu          sync.Mutex
	randomCalls map[string]*flight[map[fpu.Op]*dta.Summary]
	waCalls     map[waKey]*flight[map[fpu.Op]*dta.Summary]
	goldens     map[*workloads.Workload]*flight[*campaign.Golden]
	memo        tally
}

// waKey names one WorkloadSummariesCtx result by the provenance its
// artifact keys carry: the level, and the trace's label and content
// fingerprint.
type waKey struct {
	level, workload string
	fingerprint     uint64
}

// Metric names of the framework's single-flight lookups: a hit found a
// slot already computed or in flight (the dedup saved a characterization
// or golden run), a miss created one.
const (
	MetricMemoHits   = "experiments.memo_hits"
	MetricMemoMisses = "experiments.memo_misses"
)

// tally counts single-flight lookups; the zero tally counts nothing.
type tally struct{ hits, misses *obs.Counter }

// flight is one single-flight slot.
type flight[T any] struct {
	once sync.Once
	v    T
	err  error
}

// errFlightPanicked is what waiters on a single-flight slot see when its
// computation panicked: sync.Once counts a panicking function as done,
// so the slot must not be read as a success.
var errFlightPanicked = errors.New("core: shared computation panicked")

// singleFlight returns calls[key]'s value, computing it with fn on first
// use while concurrent callers wait, and counts the lookup on t. A failed
// or panicking computation never poisons the slot: it is discarded, so a
// later call (e.g. a resumed run after a cancellation) recomputes instead
// of inheriting the error. The panic itself propagates to the caller that
// ran fn.
func singleFlight[K comparable, T any](mu *sync.Mutex, calls map[K]*flight[T], key K, t tally, fn func() (T, error)) (T, error) {
	mu.Lock()
	call, ok := calls[key]
	if !ok {
		call = &flight[T]{}
		calls[key] = call
	}
	mu.Unlock()
	if ok {
		t.hits.Inc()
	} else {
		t.misses.Inc()
	}
	defer func() {
		if call.err != nil {
			mu.Lock()
			if calls[key] == call {
				delete(calls, key)
			}
			mu.Unlock()
		}
	}()
	call.once.Do(func() {
		call.err = errFlightPanicked
		call.v, call.err = fn()
	})
	if call.err != nil {
		var zero T
		return zero, call.err
	}
	return call.v, nil
}

// New builds (and calibrates) a private hardware substrate for cfg's
// seed and returns the framework over it.
func New(cfg Config) (*Framework, error) {
	d, err := NewDesign(DesignSeed(cfg))
	if err != nil {
		return nil, err
	}
	return NewOn(d, cfg)
}

// NewOn returns a framework over an existing design, which it shares
// with every other framework built on it: the FPU, its Scratch caches
// and the design's memos. cfg's seed (after defaults) must be the
// design's. Per-run state (summaries, golden runs, metrics, artifact
// store) stays the framework's own.
func NewOn(d *Design, cfg Config) (*Framework, error) {
	cfg = withDefaults(cfg)
	if cfg.Seed != d.Seed {
		return nil, fmt.Errorf("core: config seed %#x does not match design seed %#x", cfg.Seed, d.Seed)
	}
	return &Framework{
		Cfg:         cfg,
		FPU:         d.FPU,
		Volt:        vscale.Default45nm(),
		design:      d,
		randomCalls: make(map[string]*flight[map[fpu.Op]*dta.Summary]),
		waCalls:     make(map[waKey]*flight[map[fpu.Op]*dta.Summary]),
		goldens:     make(map[*workloads.Workload]*flight[*campaign.Golden]),
		memo:        tally{cfg.Metrics.Counter(MetricMemoHits), cfg.Metrics.Counter(MetricMemoMisses)},
	}, nil
}

// DesignSeed is the design seed New builds for cfg: its Seed, or the
// default seed when unset. Frameworks for configs with equal design seeds
// can share one Design.
func DesignSeed(cfg Config) uint64 { return withDefaults(cfg).Seed }

// withDefaults fills cfg's unset sizes and seed from DefaultConfig.
func withDefaults(cfg Config) Config {
	d := DefaultConfig()
	if cfg.RandomOperands == 0 {
		cfg.RandomOperands = d.RandomOperands
	}
	if cfg.WorkloadOperands == 0 {
		cfg.WorkloadOperands = d.WorkloadOperands
	}
	if cfg.DASample == 0 {
		cfg.DASample = d.DASample
	}
	if cfg.Seed == 0 {
		cfg.Seed = d.Seed
	}
	return cfg
}

// RandomSummariesCtx runs (or returns cached) DTA over uniformly random
// operands for every instruction type at the level — the IA model's
// characterization and Figure 7's data. Each op's operand stream is
// seeded independently of the others, so per-op summaries are stable
// cache artifacts regardless of which ops were analyzed before them.
// Cancellation mid-characterization never poisons the single-flight slot:
// the aborted slot is discarded, so a later call (e.g. a resumed run)
// recomputes instead of inheriting the cancellation error.
func (f *Framework) RandomSummariesCtx(ctx context.Context, level vscale.VRLevel) (map[fpu.Op]*dta.Summary, error) {
	return singleFlight(&f.mu, f.randomCalls, level.Name, f.memo, func() (map[fpu.Op]*dta.Summary, error) {
		return f.randomSummaries(ctx, level)
	})
}

func (f *Framework) randomSummaries(ctx context.Context, level vscale.VRLevel) (map[fpu.Op]*dta.Summary, error) {
	out := make(map[fpu.Op]*dta.Summary, fpu.NumOps)
	for _, op := range fpu.Ops() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := f.RandomSummaryOpCtx(ctx, level, op)
		if err != nil {
			return nil, err
		}
		out[op] = s
	}
	return out, nil
}

// RandomSummaryOpCtx characterizes (or reloads from the artifact store)
// a single op's random-operand DTA summary at a level — one loop
// iteration of RandomSummariesCtx, exposed so a shard worker can compute
// exactly one (level, op) unit. The artifact key is identical to the one
// the full loop writes, so a prewarmed store makes the in-process loop a
// pure cache read.
func (f *Framework) RandomSummaryOpCtx(ctx context.Context, level vscale.VRLevel, op fpu.Op) (*dta.Summary, error) {
	seed := f.Cfg.Seed ^ 0x1A5EED ^ prng.HashString("random/"+op.String())
	// DTA reads only the low OperandWidth bits of each operand.
	return f.characterize(ctx, level, op, "random", opOperands(op, f.Cfg.RandomOperands), seed, func(rs *prng.Source) dta.Pair {
		return dta.Pair{A: rs.Uint64(), B: rs.Uint64()}
	})
}

// opOperands is op's share of a per-op operand budget n: the iterative
// divider is ~50x slower to analyze, so it gets an eighth.
func opOperands(op fpu.Op, n int) int {
	if op == fpu.DDiv || op == fpu.SDiv {
		return n / 8
	}
	return n
}

// characterize computes (or reloads from the artifact store) op's DTA
// summary at a level over n operand pairs, each drawn by draw from one
// source seeded with seed; source names the operands' origin in the
// artifact key.
func (f *Framework) characterize(ctx context.Context, level vscale.VRLevel, op fpu.Op, source string, n int, seed uint64, draw func(rs *prng.Source) dta.Pair) (*dta.Summary, error) {
	scale := f.Volt.ScaleFor(level)
	key := artifact.SummaryKey(source, op.String(), scale, seed, n, f.Cfg.Timing.Exact())
	s, _, err := artifact.LoadOrCompute(f.Cfg.Artifacts, key, func() (*dta.Summary, error) {
		pairs := make([]dta.Pair, n)
		rs := prng.New(seed)
		for i := range pairs {
			pairs[i] = draw(rs)
		}
		recs, err := dta.AnalyzeStream(ctx, f.FPU, op, scale, f.Cfg.Timing, dta.Outcome, pairs, f.Cfg.Workers, f.Cfg.Metrics)
		if err != nil {
			return nil, err
		}
		return dta.Summarize(op, recs), nil
	})
	return s, err
}

// WorkloadSummariesCtx runs (or returns cached) DTA over operands
// extracted from the workload trace — the WA model's characterization and
// Figure 8's data — once per (level, trace) with single-flight, like
// RandomSummariesCtx. Both its in-process key and its artifact keys fold
// in the trace's content fingerprint, so summaries from a different
// workload scale or trace seed can never be confused. A canceled call is
// not kept.
func (f *Framework) WorkloadSummariesCtx(ctx context.Context, level vscale.VRLevel, tr *trace.Trace) (map[fpu.Op]*dta.Summary, error) {
	key := waKey{level: level.Name, workload: tr.Workload, fingerprint: tr.Fingerprint()}
	return singleFlight(&f.mu, f.waCalls, key, f.memo, func() (map[fpu.Op]*dta.Summary, error) {
		return f.workloadSummaries(ctx, level, tr)
	})
}

func (f *Framework) workloadSummaries(ctx context.Context, level vscale.VRLevel, tr *trace.Trace) (map[fpu.Op]*dta.Summary, error) {
	out := make(map[fpu.Op]*dta.Summary, fpu.NumOps)
	for _, op := range fpu.Ops() {
		if len(tr.Pairs[op]) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := f.WorkloadSummaryOpCtx(ctx, level, tr, op)
		if err != nil {
			return nil, err
		}
		if s != nil {
			out[op] = s
		}
	}
	return out, nil
}

// WorkloadSummaryOpCtx characterizes (or reloads) a single op's
// workload-operand DTA summary — one loop iteration of
// WorkloadSummariesCtx, exposed for shard workers. It returns (nil, nil)
// when the trace carries no operands for op.
func (f *Framework) WorkloadSummaryOpCtx(ctx context.Context, level vscale.VRLevel, tr *trace.Trace, op fpu.Op) (*dta.Summary, error) {
	pool := tr.Pairs[op]
	if len(pool) == 0 {
		return nil, nil
	}
	source := fmt.Sprintf("wl:%s:%#x", tr.Workload, tr.Fingerprint())
	seed := f.Cfg.Seed ^ 0x3A5EED ^ prng.HashString(tr.Workload+"/"+op.String())
	n := max(opOperands(op, f.Cfg.WorkloadOperands), 1)
	return f.characterize(ctx, level, op, source, n, seed, func(rs *prng.Source) dta.Pair {
		return pool[rs.Intn(len(pool))]
	})
}

// IntUnit returns the design's integer-side netlists through its memo,
// shared by every framework on the design. Callers must not modify it.
func (f *Framework) IntUnit() (*alu.Unit, error) { return f.design.IntUnit() }

// Workloads returns the benchmark set at scale through the design's
// memo, shared by every framework on the design. Callers must not modify
// it.
func (f *Framework) Workloads(scale workloads.Scale) ([]*workloads.Workload, error) {
	return f.design.Workloads(scale)
}

// CaptureTrace extracts the workload's operand trace (the model
// development phase's workload input), through the design's memo: every
// framework on the design gets the one trace captured for the same
// workload, operand cap and seed. Callers must not modify it.
func (f *Framework) CaptureTrace(w *workloads.Workload) (*trace.Trace, error) {
	return f.design.Trace(w, max(f.Cfg.WorkloadOperands, 4096), f.Cfg.Seed^0x7ACE)
}

// DevelopDACtx estimates the data-agnostic model: DTA over a mixed
// Monte-Carlo instruction sample drawn from the benchmarks' dynamic
// instruction distribution (instructions outside the FPU datapath cannot
// fail and dilute the ratio, as in the paper's fixed-ER estimate).
func (f *Framework) DevelopDACtx(ctx context.Context, level vscale.VRLevel, traces []*trace.Trace) (*errmodel.DAModel, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("core: DA development needs workload traces")
	}
	var totalInstr int64
	var opCounts [fpu.NumOps]int64
	for _, tr := range traces {
		totalInstr += tr.TotalInstr
		for op, c := range tr.OpCounts {
			opCounts[op] += c
		}
	}
	if totalInstr == 0 {
		return nil, fmt.Errorf("core: empty traces")
	}
	sums, err := f.RandomSummariesCtx(ctx, level)
	if err != nil {
		return nil, err
	}
	// Expected faulty instructions in a DASample-sized mixed draw.
	var faulty float64
	for op, c := range opCounts {
		share := float64(c) / float64(totalInstr)
		faulty += share * float64(f.Cfg.DASample) * sums[fpu.Op(op)].ErrorRatio()
	}
	return errmodel.BuildDA(level.Name, int64(faulty+0.5), int64(f.Cfg.DASample)), nil
}

// DevelopIACtx builds the instruction-aware model at the level.
func (f *Framework) DevelopIACtx(ctx context.Context, level vscale.VRLevel) (*errmodel.IAModel, error) {
	sums, err := f.RandomSummariesCtx(ctx, level)
	if err != nil {
		return nil, err
	}
	return errmodel.BuildIA(level.Name, sums), nil
}

// DevelopWACtx builds the workload-aware model for one benchmark trace.
func (f *Framework) DevelopWACtx(ctx context.Context, level vscale.VRLevel, tr *trace.Trace) (*errmodel.WAModel, error) {
	sums, err := f.WorkloadSummariesCtx(ctx, level, tr)
	if err != nil {
		return nil, err
	}
	return errmodel.BuildWA(level.Name, tr.Workload, sums), nil
}

// EvaluateCtx runs the application-evaluation phase for one cell with
// the model injecting stochastically throughout each run. Workers stop
// picking up injection runs once ctx is done and the cell errors out
// instead of producing a partially sampled (statistically biased) result.
func (f *Framework) EvaluateCtx(ctx context.Context, w *workloads.Workload, m errmodel.Model, runs int) (*campaign.Result, error) {
	return f.evaluate(ctx, w, m, runs, false)
}

// EvaluateSingleCtx runs the paper's statistical-fault-injection
// discipline: exactly one injected error per run (Section V's 1068-run
// methodology), with the same cancellation behaviour as EvaluateCtx.
func (f *Framework) EvaluateSingleCtx(ctx context.Context, w *workloads.Workload, m errmodel.Model, runs int) (*campaign.Result, error) {
	return f.evaluate(ctx, w, m, runs, true)
}

func (f *Framework) evaluate(ctx context.Context, w *workloads.Workload, m errmodel.Model, runs int, single bool) (*campaign.Result, error) {
	g, err := singleFlight(&f.mu, f.goldens, w, f.memo, func() (*campaign.Golden, error) {
		return campaign.NewGolden(w, f.Cfg.Metrics)
	})
	if err != nil {
		return nil, err
	}
	return campaign.Run(campaign.Spec{
		Golden:          g,
		Workload:        w,
		Model:           m,
		Runs:            runs,
		Seed:            f.Cfg.Seed ^ prng.HashString(w.Name) ^ prng.HashString(string(m.Kind())+m.Level()),
		Workers:         f.Cfg.Workers,
		SingleInjection: single,
		TimeoutFactor:   f.Cfg.TimeoutFactor,
		Metrics:         f.Cfg.Metrics,
		Context:         ctx,
	})
}
