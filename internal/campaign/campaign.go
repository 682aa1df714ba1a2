// Package campaign runs microarchitectural error-injection campaigns and
// classifies their outcomes into the paper's four categories (Section
// IV-A): Masked, SDC, Crash, and Timeout. A campaign executes one golden
// (injection-free) run to capture the reference output and execution
// time, then N injected runs with fresh per-run random streams; Timeout
// is declared at twice the error-free execution time, exactly as in the
// paper.
package campaign

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"teva/internal/cpu"
	"teva/internal/errmodel"
	"teva/internal/fpu"
	"teva/internal/guard"
	"teva/internal/obs"
	"teva/internal/prng"
	"teva/internal/stats"
	"teva/internal/workloads"
)

// Outcome is the classification of one injected run.
type Outcome uint8

// The four outcome classes of Section IV-A.
const (
	Masked Outcome = iota
	SDC
	Crash
	Timeout
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{"Masked", "SDC", "Crash", "Timeout"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Spec describes one campaign cell: a workload, an error model (already
// bound to a voltage level), and the run count.
type Spec struct {
	Workload *workloads.Workload
	Model    errmodel.Model
	// Runs is the number of injected executions (the paper uses
	// stats.SampleSize(stats.Z95, 0.03) = 1068).
	Runs int
	// Seed makes the campaign reproducible.
	Seed uint64
	// TimeoutFactor scales the golden execution time into the timeout
	// budget (default 2.0, per the paper).
	TimeoutFactor float64
	// Workers bounds the parallelism (default GOMAXPROCS).
	Workers int
	// SingleInjection selects the paper's statistical-fault-injection
	// discipline: each run corrupts exactly one dynamic instruction,
	// drawn from the model's injection distribution over the golden
	// execution (AVM then reads directly as "probability that one
	// injected timing error disturbs the application"). When false, the
	// model corrupts stochastically throughout the run (many errors per
	// run for error-prone voltage levels).
	SingleInjection bool
	// Metrics, when non-nil, receives campaign.* counters (runs, injected
	// errors, per-outcome tallies) and the injections-per-run histogram.
	Metrics *obs.Registry
	// Golden, when non-nil, is the workload's golden run (NewGolden),
	// shared by every cell of the workload; nil runs one for this cell.
	Golden *Golden
	// Context, when non-nil, cancels the cell: workers stop picking up new
	// runs once it is done and Run returns the context's error instead of
	// a partial result. A partially sampled campaign would bias every
	// statistic built on it, so cancellation always discards the cell —
	// the artifact cache only ever sees complete cells.
	Context context.Context
}

// Metric names published by Run. Per-outcome tallies are four separate
// constants (not an indexed lookup) so the obsnames analyzer can prove
// the namespace at compile time.
const (
	MetricCells             = "campaign.cells"
	MetricRuns              = "campaign.runs"
	MetricGoldenRuns        = "campaign.golden_runs"
	MetricInjectedErrors    = "campaign.injected_errors"
	MetricRunsWithInjection = "campaign.runs_with_injection"
	MetricOutcomeMasked     = "campaign.outcome.masked"
	MetricOutcomeSDC        = "campaign.outcome.sdc"
	MetricOutcomeCrash      = "campaign.outcome.crash"
	MetricOutcomeTimeout    = "campaign.outcome.timeout"
	MetricInjectionsPerRun  = "campaign.injections_per_run"

	// Fast-path tallies (see Golden). They describe how the outcomes were
	// reached, not the outcomes, so they stay out of Result and its
	// cached artifacts.
	//
	// MetricFastRestoredRuns counts runs started from a golden checkpoint
	// past reset.
	MetricFastRestoredRuns = "campaign.fast.restored_runs"
	// MetricFastMaskedExits counts injected runs stopped as Masked at a
	// checkpoint whose full state equals golden's.
	MetricFastMaskedExits = "campaign.fast.masked_exits"
	// MetricFastUninjectedSkips counts runs classified Masked without an
	// injection and without running to halt: no injector, or the target
	// passed without firing.
	MetricFastUninjectedSkips = "campaign.fast.uninjected_skips"
	// MetricFastInstrSkipped counts golden instructions not simulated:
	// restored prefixes plus the suffixes after an early exit.
	MetricFastInstrSkipped = "campaign.fast.instr_skipped"
)

// maxCheckpoints bounds a golden recording's checkpoints (reset
// included), which bounds its memory: about 4 KiB of scalar state each,
// plus one 512-byte page version per page stored to in each interval.
const maxCheckpoints = 16

// injectionsPerRunBounds buckets the histogram of manifested errors per
// injected run (0 means the model never fired; the overflow bucket
// catches error-storm runs at deep undervolting).
var injectionsPerRunBounds = []float64{0, 1, 2, 4, 8, 16, 64, 256, 1024}

// fastStats tallies a cell's fast-path runs (the campaign.fast.* names).
type fastStats struct {
	restored, maskedExits, uninjectedSkips, instrSkipped int64
}

func (f *fastStats) add(o runOut) {
	if o.restored {
		f.restored++
	}
	if o.exited && o.injections > 0 {
		f.maskedExits++
	}
	if o.exited && o.injections == 0 {
		f.uninjectedSkips++
	}
	f.instrSkipped += o.skipped
}

// record publishes the aggregated cell onto m (no-op for nil m). Called
// after the worker fan-in, from one goroutine, so gauge-free counter
// arithmetic keeps snapshots order-independent.
func (r *Result) record(m *obs.Registry, outs []int64, fast fastStats) {
	if m == nil {
		return
	}
	m.Counter(MetricCells).Inc()
	m.Counter(MetricRuns).Add(int64(r.Runs))
	m.Counter(MetricInjectedErrors).Add(r.InjectedErrors)
	m.Counter(MetricRunsWithInjection).Add(int64(r.RunsWithInjection))
	m.Counter(MetricOutcomeMasked).Add(int64(r.Outcomes[Masked]))
	m.Counter(MetricOutcomeSDC).Add(int64(r.Outcomes[SDC]))
	m.Counter(MetricOutcomeCrash).Add(int64(r.Outcomes[Crash]))
	m.Counter(MetricOutcomeTimeout).Add(int64(r.Outcomes[Timeout]))
	h := m.Histogram(MetricInjectionsPerRun, injectionsPerRunBounds)
	for _, n := range outs {
		h.Observe(float64(n))
	}
	m.Counter(MetricFastRestoredRuns).Add(fast.restored)
	m.Counter(MetricFastMaskedExits).Add(fast.maskedExits)
	m.Counter(MetricFastUninjectedSkips).Add(fast.uninjectedSkips)
	m.Counter(MetricFastInstrSkipped).Add(fast.instrSkipped)
}

// Result aggregates one campaign cell.
type Result struct {
	Workload string
	Model    errmodel.Kind
	Level    string
	// Outcomes counts runs per class.
	Outcomes [NumOutcomes]int
	// Runs is the total injected executions.
	Runs int
	// InjectedErrors is the total number of corrupted writebacks across
	// all runs.
	InjectedErrors int64
	// RunsWithInjection counts runs in which at least one error was
	// injected.
	RunsWithInjection int
	// GoldenInstret/GoldenCycles describe the error-free execution.
	GoldenInstret int64
	GoldenCycles  uint64
	// GoldenFPOps is the error-free per-op dynamic instruction count.
	GoldenFPOps [fpu.NumOps]int64
	// CrashKinds breaks the Crash class down by cause (the paper's
	// process-crash / kernel-panic / floating-point-exception taxonomy):
	// "memory fault", "misaligned access", "wild pc", "illegal
	// instruction", "fp exception", "other".
	CrashKinds map[string]int
}

// crashKind maps a simulator crash reason onto the taxonomy.
func crashKind(reason string) string {
	switch {
	case strings.Contains(reason, "memory fault"), strings.Contains(reason, "string fault"):
		return "memory fault"
	case strings.Contains(reason, "misaligned"):
		return "misaligned access"
	case strings.Contains(reason, "outside text"):
		return "wild pc"
	case strings.Contains(reason, "illegal"):
		return "illegal instruction"
	case strings.Contains(reason, "fp invalid"):
		return "fp exception"
	default:
		return "other"
	}
}

// Fraction returns the share of runs in the class.
func (r *Result) Fraction(o Outcome) float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.Outcomes[o]) / float64(r.Runs)
}

// ErrorRatio is Eq. 2 at the campaign level: injected (manifested) errors
// per dynamic instruction, averaged over runs — the quantity Figure 10
// compares across models.
func (r *Result) ErrorRatio() float64 {
	if r.Runs == 0 || r.GoldenInstret == 0 {
		return 0
	}
	return float64(r.InjectedErrors) / float64(r.Runs) / float64(r.GoldenInstret)
}

// AVM is the Application Vulnerability Metric of Eq. 4: the probability
// that injected timing errors disturb the application (SDC, Crash or
// Timeout), over the runs that actually experienced an injection. A
// workload/level whose model injects nothing is invulnerable (AVM 0).
func (r *Result) AVM() float64 {
	if r.RunsWithInjection == 0 {
		return 0
	}
	bad := r.Outcomes[SDC] + r.Outcomes[Crash] + r.Outcomes[Timeout]
	return float64(bad) / float64(r.RunsWithInjection)
}

// Wilson returns the 95% confidence interval for an outcome's fraction.
func (r *Result) Wilson(o Outcome) (lo, hi float64) {
	p := stats.Proportion{Successes: r.Outcomes[o], Trials: r.Runs}
	return p.Wilson(stats.Z95)
}

// runConfig is the simulator configuration of golden and injected runs
// alike (the injector aside).
var runConfig = cpu.Config{TrapFPInvalid: true}

// Golden is a workload's error-free reference execution: the output and
// console injected runs are classified against, the cycle count the
// timeout budget scales, the dynamic instruction profile single-injection
// targets are drawn from, and checkpoints of the run, recorded on first
// use by a single-injection cell, that injected runs start from. It is
// safe for concurrent use, so cells of one workload may share it.
type Golden struct {
	w       *workloads.Workload
	out     []byte
	console []byte
	cycles  uint64
	instret int64
	fpops   [fpu.NumOps]int64

	interval int64
	recOnce  sync.Once
	rec      *cpu.Recording
}

// NewGolden executes the workload without injection and counts the
// execution on m's campaign.golden_runs (nil m: not counted).
func NewGolden(w *workloads.Workload, m *obs.Registry) (*Golden, error) {
	c := cpu.New(w.Program, runConfig)
	res := c.Run(1 << 40)
	out := append([]byte(nil), c.Mem()[w.OutStart:w.OutStart+w.OutLen]...)
	console := append([]byte(nil), c.Output()...)
	c.Release()
	if res.Status != cpu.Halted {
		return nil, fmt.Errorf("campaign: golden %s did not halt: %v (%s)",
			w.Name, res.Status, res.Reason)
	}
	m.Counter(MetricGoldenRuns).Inc()
	return &Golden{
		w:        w,
		out:      out,
		console:  console,
		cycles:   res.Cycles,
		instret:  res.Instret,
		fpops:    res.FPOps,
		interval: (res.Instret + maxCheckpoints - 1) / maxCheckpoints,
	}, nil
}

// recording returns the checkpointed golden run, recording it on first
// use. Stochastic cells never call it: their runs start from reset.
func (g *Golden) recording() *cpu.Recording {
	g.recOnce.Do(func() {
		g.rec, _ = cpu.Record(g.w.Program, runConfig, g.interval, 1<<40)
	})
	return g.rec
}

// ValidateTimeoutFactor rejects timeout factors that would silently turn
// into a zero/garbage cycle budget and misclassify every run as Timeout.
// Zero is valid — Run substitutes the 2.0 default; everything else must
// be a positive, finite factor. Exported so spec decoders (the serve
// API) reject a bad factor at submission time with the same rule Run
// enforces at execution time.
func ValidateTimeoutFactor(tf float64) error {
	if math.IsNaN(tf) || math.IsInf(tf, 0) || tf < 0 {
		return fmt.Errorf("campaign: invalid TimeoutFactor %v (want a positive, finite factor)", tf)
	}
	return nil
}

// Run executes the campaign cell. Cancellation (Spec.Context) and worker
// panics both abort the whole cell with an error — never a partial
// Result — while a panic's identity (workload/model/level and stack) is
// preserved through guard.PanicError for per-cell reporting upstream.
func Run(spec Spec) (*Result, error) {
	if spec.Runs <= 0 {
		return nil, fmt.Errorf("campaign: non-positive run count")
	}
	ctx := spec.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := spec.Metrics.Phase("campaign")
	defer sp.End()
	tf := spec.TimeoutFactor
	if tf == 0 {
		tf = 2.0
	}
	if err := ValidateTimeoutFactor(tf); err != nil {
		return nil, err
	}
	g := spec.Golden
	if g == nil {
		var err error
		if g, err = NewGolden(spec.Workload, spec.Metrics); err != nil {
			return nil, err
		}
	} else if g.w != spec.Workload {
		return nil, fmt.Errorf("campaign: golden run of %s given for %s", g.w.Name, spec.Workload.Name)
	}
	res := &Result{
		Workload:      spec.Workload.Name,
		Model:         spec.Model.Kind(),
		Level:         spec.Model.Level(),
		Runs:          spec.Runs,
		GoldenInstret: g.instret,
		GoldenCycles:  g.cycles,
		GoldenFPOps:   g.fpops,
	}
	r := newRunner(spec, g, tf)

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Runs {
		workers = spec.Runs
	}
	outs := make([]runOut, spec.Runs)
	// Workers pull run indices from a shared counter so a canceled cell
	// stops after the in-flight runs. A panicking run is recovered by the
	// guard barrier into a labeled error; its worker dies but the others
	// drain the remaining indices, so one poisoned run cannot hang the
	// pool. Per-run results are pure functions of (seed, index), so the
	// pull order cannot change the aggregate.
	cellID := fmt.Sprintf("%s/%s@%s", spec.Workload.Name, spec.Model.Kind(), spec.Model.Level())
	var next atomic.Int64
	var wg sync.WaitGroup
	var sink guard.Sink
	for w := 0; w < workers; w++ {
		guard.Go(&wg, &sink, "campaign cell "+cellID, func() error {
			var c *cpu.CPU // one simulator per worker, created on first use
			var err error
			for {
				i := int(next.Add(1)) - 1
				if i >= spec.Runs {
					break
				}
				if err = ctx.Err(); err != nil {
					break
				}
				outs[i] = r.run(&c, i)
			}
			// Not deferred: a panicking run leaves its simulator to the
			// GC rather than recycling memory in an unknown state.
			if c != nil {
				c.Release()
			}
			return err
		})
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := sink.Join(); err != nil {
		return nil, err
	}
	res.CrashKinds = make(map[string]int)
	injections := make([]int64, len(outs))
	var fast fastStats
	for i, o := range outs {
		res.Outcomes[o.outcome]++
		res.InjectedErrors += o.injections
		injections[i] = o.injections
		if o.injections > 0 {
			res.RunsWithInjection++
		}
		if o.crashKind != "" {
			res.CrashKinds[o.crashKind]++
		}
		fast.add(o)
	}
	res.record(spec.Metrics, injections, fast)
	return res, nil
}

// runOut is one run's outcome and how the fast path reached it.
type runOut struct {
	outcome    Outcome
	injections int64
	crashKind  string

	restored bool  // started from a checkpoint past reset
	exited   bool  // stopped early as Masked
	skipped  int64 // golden instructions not simulated
}

// runner executes a cell's runs.
type runner struct {
	spec   Spec
	g      *Golden
	budget uint64
	prof   errmodel.ExecProfile
	fast   bool
}

func newRunner(spec Spec, g *Golden, tf float64) *runner {
	budget := uint64(float64(g.cycles) * tf)
	return &runner{
		spec:   spec,
		g:      g,
		budget: budget,
		prof:   errmodel.ExecProfile{FPOps: g.fpops, TotalInstr: g.instret},
		// A restored prefix and an early exit both stand for golden
		// execution, which only finishes within a budget of at least the
		// golden cycle count.
		fast: spec.SingleInjection && budget >= g.cycles,
	}
}

// run executes run i on the worker's simulator *c (created on first use).
//
// Every run starts from a checkpoint and runs to the next one, and so on
// to the end. Stochastic runs, and single-injection runs whose budget is
// below the golden cycle count, start from reset and have no later
// checkpoints. A single-injection run otherwise starts from the last
// checkpoint its target lies beyond. Once its injector can no longer
// fire, a run whose full state equals golden's at a checkpoint has the
// golden suffix ahead of it, so it stops there as Masked: the outcome,
// injection count and crash kind are exactly those of the full run.
// Otherwise the run goes on without its injector: an exhausted one
// answers 0 to every later writeback, so detaching it changes nothing but
// the cost of building and offering each writeback event. The next run's
// SetInjector re-arms the reused CPU.
func (r *runner) run(c **cpu.CPU, i int) runOut {
	src := prng.New(r.spec.Seed + uint64(i)*0x9E3779B97F4A7C15 + 1)
	var inj cpu.Injector
	var single errmodel.Single
	if r.spec.SingleInjection {
		single = errmodel.SingleInjector(r.spec.Model, r.prof, src)
		inj = single
	} else {
		inj = r.spec.Model.NewInjector(src)
	}
	if r.fast && single == nil {
		return runOut{outcome: Masked, exited: true, skipped: r.g.instret}
	}
	if *c == nil {
		*c = cpu.New(r.spec.Workload.Program, runConfig)
	}
	var rec *cpu.Recording
	k, prefix := 0, int64(0)
	if r.fast {
		rec = r.g.recording()
		k = sort.Search(rec.Len(), func(k int) bool { return !single.Ahead(rec.At(k)) }) - 1
		start := rec.At(k)
		single.Skip(start)
		prefix = start.Instret
	}
	sim := *c
	sim.Restore(rec, k)
	sim.SetInjector(inj)
	for j := k + 1; ; j++ {
		stop := int64(math.MaxInt64)
		if rec != nil && j < rec.Len() {
			stop = rec.At(j).Instret
		}
		res, paused := sim.RunTo(r.budget, stop)
		if !paused {
			o := r.classify(sim, res)
			o.restored, o.skipped = k > 0, prefix
			return o
		}
		if single.Exhausted(res) {
			if res.Injections == 0 || sim.Matches(rec, j) {
				return runOut{outcome: Masked, injections: res.Injections,
					restored: k > 0, exited: true, skipped: prefix + r.g.instret - res.Instret}
			}
			sim.SetInjector(nil)
		}
	}
}

// classify maps a finished run onto the outcome classes.
func (r *runner) classify(c *cpu.CPU, res cpu.Result) runOut {
	o := runOut{injections: res.Injections}
	switch res.Status {
	case cpu.Crashed:
		o.outcome = Crash
		o.crashKind = crashKind(res.Reason)
	case cpu.TimedOut:
		o.outcome = Timeout
	default:
		w := r.spec.Workload
		if bytes.Equal(c.Mem()[w.OutStart:w.OutStart+w.OutLen], r.g.out) &&
			bytes.Equal(c.Output(), r.g.console) {
			o.outcome = Masked
		} else {
			o.outcome = SDC
		}
	}
	return o
}

// String renders the cell like the paper's Figure 9 bars.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s@%s: masked %.1f%% sdc %.1f%% crash %.1f%% timeout %.1f%% (ER %.3g, AVM %.3f)",
		r.Workload, r.Model, r.Level,
		100*r.Fraction(Masked), 100*r.Fraction(SDC),
		100*r.Fraction(Crash), 100*r.Fraction(Timeout),
		r.ErrorRatio(), r.AVM())
}
