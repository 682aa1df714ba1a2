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
// Each experiment is a pure function of a shared lazily-populated
// environment, so the campaign-heavy figures (9, 10, AVM) reuse one
// campaign set.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"teva/internal/alu"
	"teva/internal/artifact"
	"teva/internal/campaign"
	"teva/internal/core"
	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/fpu"
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

// Env materializes the shared artifacts (workloads, traces, models,
// campaigns) the experiments draw from. Every lazily built artifact lives
// behind a single-flight memo, so the environment is safe for concurrent
// use and the parallel matrix build (RunCampaigns) never duplicates work:
// Figures 9, 10 and the AVM analysis all reuse one campaign set, and
// every DA cell at a level waits on one shared characterization instead
// of racing it. When the framework carries an artifact store, campaign
// cells are additionally persisted across process lifetimes.
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
	// saveWarn rate-limits the non-fatal cache-write-failure warning to
	// once per Env (the store counts every failure on
	// artifact.write_errors regardless).
	saveWarn sync.Once

	ws      []*workloads.Workload
	wsErr   error
	wsOnce  sync.Once
	traces  *memo[*trace.Trace]
	waSums  *memo[map[fpu.Op]*dta.Summary] // key: level/workload
	daBy    *memo[*errmodel.DAModel]
	iaBy    *memo[*errmodel.IAModel]
	waBy    *memo[*errmodel.WAModel] // key: level/workload
	cells   *memo[*campaign.Result]  // key: workload/kind/level
	streams *memo[*dta.Summary]      // ad-hoc characterization streams
	intUnit *memo[*alu.Unit]

	cellsDone   atomic.Int64
	cellsTotal  atomic.Int64
	cellsCached atomic.Int64
}

// NewEnv creates the environment. When the framework's Config carries a
// metrics registry, every memo reports its single-flight hit/miss tallies
// under the experiments.* names.
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
	m := f.Cfg.Metrics
	return &Env{
		F:       f,
		Opts:    opts,
		ctx:     ctx,
		drain:   make(chan struct{}),
		traces:  newMemoObs[*trace.Trace](m),
		waSums:  newMemoObs[map[fpu.Op]*dta.Summary](m),
		daBy:    newMemoObs[*errmodel.DAModel](m),
		iaBy:    newMemoObs[*errmodel.IAModel](m),
		waBy:    newMemoObs[*errmodel.WAModel](m),
		cells:   newMemoObs[*campaign.Result](m),
		streams: newMemoObs[*dta.Summary](m),
		intUnit: newMemoObs[*alu.Unit](m),
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

// noteSaveError surfaces a non-fatal artifact cache write failure exactly
// once per Env on stderr; every failure is counted by the store on
// artifact.write_errors either way. Losing a cache write costs only
// recomputation on the next run, so it must not fail the experiment — but
// a silently read-only cache directory should not be silent.
func (e *Env) noteSaveError(err error) {
	if err == nil {
		return
	}
	e.saveWarn.Do(func() {
		fmt.Fprintf(os.Stderr, "teva: artifact cache write failed (non-fatal, counted on %s): %v\n",
			artifact.MetricWriteErrors, err)
	})
}

// Levels returns the evaluated voltage-reduction levels.
func (e *Env) Levels() []vscale.VRLevel { return vscale.PaperLevels() }

// Workloads returns (building once) the benchmark set.
func (e *Env) Workloads() ([]*workloads.Workload, error) {
	e.wsOnce.Do(func() { e.ws, e.wsErr = workloads.All(e.Opts.Scale) })
	return e.ws, e.wsErr
}

// Trace returns (capturing once) a workload's operand trace.
func (e *Env) Trace(w *workloads.Workload) (*trace.Trace, error) {
	return e.traces.do(w.Name, func() (*trace.Trace, error) {
		return e.F.CaptureTrace(w)
	})
}

// WASummaries returns (computing once) the workload-aware DTA summaries.
func (e *Env) WASummaries(level vscale.VRLevel, w *workloads.Workload) (map[fpu.Op]*dta.Summary, error) {
	return e.waSums.do(level.Name+"/"+w.Name, func() (map[fpu.Op]*dta.Summary, error) {
		tr, err := e.Trace(w)
		if err != nil {
			return nil, err
		}
		return e.F.WorkloadSummariesCtx(e.ctx, level, tr)
	})
}

// DAModel returns (building once) the data-agnostic model at a level.
func (e *Env) DAModel(level vscale.VRLevel) (*errmodel.DAModel, error) {
	return e.daBy.do(level.Name, func() (*errmodel.DAModel, error) {
		ws, err := e.Workloads()
		if err != nil {
			return nil, err
		}
		var trs []*trace.Trace
		for _, w := range ws {
			tr, err := e.Trace(w)
			if err != nil {
				return nil, err
			}
			trs = append(trs, tr)
		}
		return e.F.DevelopDACtx(e.ctx, level, trs)
	})
}

// IAModelErr returns (building once) the instruction-aware model at a
// level, or the build error (a canceled or panicking characterization).
func (e *Env) IAModelErr(level vscale.VRLevel) (*errmodel.IAModel, error) {
	return e.iaBy.do(level.Name, func() (*errmodel.IAModel, error) {
		return e.F.DevelopIACtx(e.ctx, level)
	})
}

// WAModel returns (building once) the workload-aware model for a cell.
func (e *Env) WAModel(level vscale.VRLevel, w *workloads.Workload) (*errmodel.WAModel, error) {
	return e.waBy.do(level.Name+"/"+w.Name, func() (*errmodel.WAModel, error) {
		sums, err := e.WASummaries(level, w)
		if err != nil {
			return nil, err
		}
		return errmodel.BuildWA(level.Name, w.Name, sums), nil
	})
}

// Model returns (building once) the error model of one family at a
// level: DA characterizes against every workload's trace, IA is shared
// by all workloads, and WA is specific to w.
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

// CellCtx runs (once) the injection campaign for one (workload, model
// family, level) under ctx (RunCampaigns passes its fail-fast inner
// context so in-flight cells abort promptly once another cell
// hard-fails). A cell found in the artifact store is reloaded without
// building its model at all — on a warm cache the whole matrix resolves
// without a single simulation. A panic anywhere in the cell's model build
// or campaign is recovered into an error labeled with the cell key.
func (e *Env) CellCtx(ctx context.Context, w *workloads.Workload, kind errmodel.Kind, level vscale.VRLevel) (*campaign.Result, error) {
	key := fmt.Sprintf("%s/%s/%s", w.Name, kind, level.Name)
	return e.cells.do(key, func() (*campaign.Result, error) {
		store := e.F.Cfg.Artifacts
		ak := artifact.CampaignKey(w.Name, string(kind), level.Name,
			e.Opts.Runs, e.F.Cfg.Seed, true, e.cfgTag())
		cached := new(campaign.Result)
		if store.Load(ak, cached) {
			e.cellsCached.Add(1)
			e.cellsDone.Add(1)
			return cached, nil
		}
		m, err := e.Model(kind, level, w)
		if err != nil {
			return nil, err
		}
		// Figures 9 and the AVM analysis use the paper's single-injection
		// statistical discipline. Cancellation discards the cell entirely
		// (campaign.Run never returns partial results), so the store below
		// only ever sees complete cells.
		r, err := e.F.EvaluateSingleCtx(ctx, w, m, e.Opts.Runs)
		if err != nil {
			return nil, err
		}
		e.noteSaveError(store.Save(ak, r))
		e.cellsDone.Add(1)
		return r, nil
	})
}

// IntUnit returns (building once) the integer-side netlists for Figure 4.
func (e *Env) IntUnit() (*alu.Unit, error) {
	return e.intUnit.do("int", func() (*alu.Unit, error) {
		return alu.New(e.F.FPU.Lib, e.F.Cfg.Seed+0xA10)
	})
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

// rng returns a derived deterministic source.
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
