// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections IV-V) from the reproduction's own substrate:
//
//	Table I   — error-model feature matrix
//	Table II  — benchmark inventory (inputs, dynamic sizes, criteria)
//	Figure 4  — distribution of the 1000 longest paths across units
//	Figure 5  — bit-flip multiplicity of faulty instructions per VR level
//	Figure 6  — BER convergence with DTA sample size (fp-mul of is)
//	Figure 7  — IA-model per-instruction bit error-injection probabilities
//	Figure 8  — WA-model per-benchmark bit error-injection probabilities
//	Figure 9  — injection outcome distributions (Masked/SDC/Crash/Timeout)
//	Figure 10 — injected error ratios and model divergence (the ~250x)
//	Section V-C — AVM analysis and voltage-guidance table
//
// plus the extension experiments: the Section VI future-work delay
// sources (temperature, aging, overclocking, process variation), the
// Voltus-substitute power study, the model-validation check, the
// pipeline-history and adder-architecture ablations, and the FPU design
// report. Every experiment also exports machine-readable CSV series.
//
// Each experiment is a pure function of a shared environment (Env) whose
// expensive inputs are computed once, in core, and RunSuite builds the
// campaign matrix once for the figures that read it (9 and AVM).
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"teva/internal/artifact"
	"teva/internal/campaign"
	"teva/internal/core"
	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/fpu"
	"teva/internal/guard"
	"teva/internal/obs"
	"teva/internal/prng"
	"teva/internal/trace"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Scale selects the workload input class.
	Scale workloads.Scale
	// Runs is the injections per campaign cell (the paper's statistical
	// setting is stats.SampleSize(stats.Z95, 0.03) = 1068).
	Runs int
	// Fig4Paths is the path count of Figure 4 (1000 in the paper).
	Fig4Paths int
	// Fig6Full is the "full trace" DTA sample size of Figure 6; Fig6Ks
	// are the sub-sample sizes compared against it, and Fig6Reps is the
	// number of independent draws averaged per K.
	Fig6Full int
	Fig6Ks   []int
	Fig6Reps int
}

// DefaultOptions returns the laptop-scale defaults.
func DefaultOptions() Options {
	return Options{
		Scale:     workloads.Small,
		Runs:      100,
		Fig4Paths: 1000,
		Fig6Full:  24000,
		Fig6Ks:    []int{1000, 4000, 12000},
		Fig6Reps:  3,
	}
}

// Env is what the experiments draw from: the framework, the run's options
// and its cancellation. It keeps no cache of its own. Each expensive
// result has one in-process cache, in core: the design memoizes the
// integer unit, benchmark sets and operand traces, and the framework
// single-flights the DTA summaries and golden runs, so the parallel
// matrix build (RunCampaigns) never duplicates a characterization. Models
// are cheap folds over the summaries, rebuilt on each call. With an
// artifact store, summaries, campaign cells and the netlist-only results
// also persist across runs. An Env is safe for concurrent use.
type Env struct {
	F    *core.Framework
	Opts Options

	// ctx is the environment's hard-cancellation context (wall-clock
	// budget, fatal-error abort): once done, in-flight work stops at its
	// next check and new cells are not dispatched.
	ctx context.Context
	// drain is the soft-stop channel: once closed (Drain), the matrix
	// build dispatches no new cells but in-flight ones run to completion
	// and reach the artifact cache, so a re-run resumes incrementally.
	drain     chan struct{}
	drainOnce sync.Once
	// panics counts panics recovered at the Env's barriers (a campaign
	// cell, a suite stage) on experiments.panics_recovered.
	panics *obs.Counter

	cellsDone   atomic.Int64
	cellsTotal  atomic.Int64
	cellsCached atomic.Int64
}

// NewEnv creates the environment. When the framework's Config carries a
// metrics registry, recovered panics are counted on it.
func NewEnv(f *core.Framework, opts Options) *Env {
	return NewEnvContext(context.Background(), f, opts)
}

// NewEnvContext is NewEnv bound to a cancellation context: when ctx is
// done (a -max-duration budget expired, or a hard failure aborted the
// run), campaign cells and characterization streams stop at their next
// cooperative check instead of running the matrix to completion.
func NewEnvContext(ctx context.Context, f *core.Framework, opts Options) *Env {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Env{
		F:      f,
		Opts:   opts,
		ctx:    ctx,
		drain:  make(chan struct{}),
		panics: f.Cfg.Metrics.Counter(MetricPanicsRecovered),
	}
}

// Drain requests a graceful stop: the matrix build dispatches no new
// cells, in-flight cells complete and are cached, and RunCampaigns
// returns the partial set alongside ErrDrained. Safe to call from any
// goroutine, any number of times.
func (e *Env) Drain() { e.drainOnce.Do(func() { close(e.drain) }) }

// Draining reports whether a drain has been requested (or the hard
// context is already done) — experiment drivers check it between
// experiments to skip the remainder of a run being shut down.
func (e *Env) Draining() bool {
	select {
	case <-e.drain:
		return true
	default:
		return e.ctx.Err() != nil
	}
}

// Levels returns the evaluated voltage-reduction levels.
func (e *Env) Levels() []vscale.VRLevel { return vscale.PaperLevels() }

// Workloads returns the benchmark set at the Env's scale, built once per
// design (see core.Design.Workloads). Callers must not modify it.
func (e *Env) Workloads() ([]*workloads.Workload, error) {
	return e.F.Workloads(e.Opts.Scale)
}

// Trace returns a workload's operand trace, captured once per design
// (see core.Design.Trace). Callers must not modify it.
func (e *Env) Trace(w *workloads.Workload) (*trace.Trace, error) {
	return e.F.CaptureTrace(w)
}

// WASummaries returns the workload-aware DTA summaries of w at a level,
// characterized once per framework (see core.Framework.WorkloadSummariesCtx).
func (e *Env) WASummaries(level vscale.VRLevel, w *workloads.Workload) (map[fpu.Op]*dta.Summary, error) {
	tr, err := e.Trace(w)
	if err != nil {
		return nil, err
	}
	return e.F.WorkloadSummariesCtx(e.ctx, level, tr)
}

// DAModel builds the data-agnostic model at a level from the cached
// random summaries and every workload's trace.
func (e *Env) DAModel(level vscale.VRLevel) (*errmodel.DAModel, error) {
	ws, err := e.Workloads()
	if err != nil {
		return nil, err
	}
	trs := make([]*trace.Trace, len(ws))
	for i, w := range ws {
		if trs[i], err = e.Trace(w); err != nil {
			return nil, err
		}
	}
	return e.F.DevelopDACtx(e.ctx, level, trs)
}

// IAModelErr builds the instruction-aware model at a level from the
// cached random summaries, or returns the characterization's error (a
// canceled context).
func (e *Env) IAModelErr(level vscale.VRLevel) (*errmodel.IAModel, error) {
	return e.F.DevelopIACtx(e.ctx, level)
}

// WAModel builds the workload-aware model for a cell from the cached
// workload summaries.
func (e *Env) WAModel(level vscale.VRLevel, w *workloads.Workload) (*errmodel.WAModel, error) {
	sums, err := e.WASummaries(level, w)
	if err != nil {
		return nil, err
	}
	return errmodel.BuildWA(level.Name, w.Name, sums), nil
}

// Model builds the error model of one family at a level: DA
// characterizes against every workload's trace, IA is shared by all
// workloads, and WA is specific to w.
func (e *Env) Model(kind errmodel.Kind, level vscale.VRLevel, w *workloads.Workload) (errmodel.Model, error) {
	switch kind {
	case errmodel.DA:
		return e.DAModel(level)
	case errmodel.IA:
		return e.IAModelErr(level)
	case errmodel.WA:
		return e.WAModel(level, w)
	}
	return nil, fmt.Errorf("experiments: unknown model kind %q", kind)
}

// CellCtx runs the injection campaign for one (workload, model family,
// level) under ctx (RunCampaigns passes its fail-fast inner context so
// in-flight cells abort promptly once another cell hard-fails). A cell
// found in the artifact store is reloaded without building its model at
// all — on a warm cache the whole matrix resolves without a single
// simulation. A panic anywhere in the cell's model build or campaign is
// recovered into an error labeled with the cell key.
func (e *Env) CellCtx(ctx context.Context, w *workloads.Workload, kind errmodel.Kind, level vscale.VRLevel) (*campaign.Result, error) {
	ak := artifact.CampaignKey(w.Name, string(kind), level.Name,
		e.Opts.Runs, e.F.Cfg.Seed, true, e.cfgTag())
	var (
		r   *campaign.Result
		hit bool
	)
	err := e.recovered(cellKey(w.Name, kind, level.Name), func() (err error) {
		r, hit, err = artifact.LoadOrCompute(e.F.Cfg.Artifacts, ak, func() (*campaign.Result, error) {
			m, err := e.Model(kind, level, w)
			if err != nil {
				return nil, err
			}
			// Figures 9 and the AVM analysis use the paper's
			// single-injection statistical discipline. Cancellation
			// discards the cell entirely (campaign.Run never returns
			// partial results), so only complete cells are stored.
			return e.F.EvaluateSingleCtx(ctx, w, m, e.Opts.Runs)
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if hit {
		e.cellsCached.Add(1)
	}
	e.cellsDone.Add(1)
	return r, nil
}

// recovered runs fn under a panic barrier labeled with the unit's name (a
// campaign cell, a suite stage): a panic becomes a *guard.PanicError
// carrying the label and is counted on experiments.panics_recovered.
func (e *Env) recovered(label string, fn func() error) error {
	panicked := true
	err := guard.Recovered(label, func() error {
		err := fn()
		panicked = false
		return err
	})
	if panicked {
		e.panics.Inc()
	}
	return err
}

// ModelKinds returns the three compared families in presentation order.
func ModelKinds() []errmodel.Kind {
	return []errmodel.Kind{errmodel.DA, errmodel.IA, errmodel.WA}
}

// opShares derives the per-op dynamic instruction shares from a trace.
func opShares(tr *trace.Trace) [fpu.NumOps]float64 {
	var shares [fpu.NumOps]float64
	for op := range shares {
		shares[op] = tr.OpShare(fpu.Op(op))
	}
	return shares
}

// rng returns a derived deterministic source. The fold is FNV-1a, but
// from 1469598103934665603, FNV's offset basis with one digit dropped
// (not prng.HashString): changing it would change every stream derived
// here, so it stays.
func (e *Env) rng(tag string) *prng.Source {
	h := uint64(1469598103934665603)
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint64(tag[i])) * 1099511628211
	}
	return prng.New(e.F.Cfg.Seed ^ h)
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// sortedKeys is a tiny helper for stable map iteration in reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
