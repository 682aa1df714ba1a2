package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"teva/internal/obs"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// This file is the shared experiment-suite driver: the exact dispatch
// sequence teva-experiments runs, extracted so the serving layer
// (internal/serve) can produce byte-identical reports without forking
// the CLI. The determinism contract is split across three writers:
//
//   - out: the deterministic report. For a given spec (seed, scale,
//     runs, engine, corners, screening) these bytes are identical run
//     to run, machine to machine, cold or warm cache.
//   - Trace: wall-clock per-experiment timing lines ("[x completed in
//     …]"). The CLI sends them to stdout interleaved with the report;
//     the server drops them (or turns them into events) so served
//     results stay byte-deterministic.
//   - Diag: cache- and budget-dependent notes (corner reload counts,
//     fig4 truncation, interrupt reasons). stderr in the CLI.

// need is a bit set of the shard unit families an experiment reads from
// the cache: ShardUnits plans exactly the families its selection needs.
type need uint8

const (
	needRandom need = 1 << iota // per-op random-operand summaries
	needWA                      // per-workload WA summaries
	needCells                   // campaign cells (built once, as CampaignSet)
)

// suiteRun is what one experiment body sees: the environment, the report
// writer, the suite configuration (Diag never nil), and — for rows that
// need cells — the campaign matrix RunSuite built before them.
type suiteRun struct {
	env *Env
	out io.Writer
	cfg *SuiteConfig
	cs  *CampaignSet
}

// experiment is one row of the suite table.
type experiment struct {
	name  string
	needs need
	run   func(s *suiteRun) error
}

// section builds the body of an experiment that is compute → render →
// optional CSV export.
func section[R any](compute func(*Env) (R, error), render func(io.Writer, R), csv func(dir string, r R) error) func(*suiteRun) error {
	return func(s *suiteRun) error {
		r, err := compute(s.env)
		if err != nil {
			return err
		}
		render(s.out, r)
		if s.cfg.CSVDir != "" {
			return csv(s.cfg.CSVDir, r)
		}
		return nil
	}
}

// suite is the one list of experiments: which exist, the order RunSuite
// runs them in, and which cached work each consumes. Names, KnownExperiment,
// RunSuite and ShardUnits all read it.
var suite = []experiment{
	{"design", 0, func(s *suiteRun) error {
		rows, err := Design(s.env)
		if err != nil {
			return err
		}
		RenderDesign(s.out, s.env, rows)
		if s.cfg.CSVDir != "" {
			return CSVDesign(s.cfg.CSVDir, rows)
		}
		return nil
	}},
	{"corners", 0, func(s *suiteRun) error {
		corners, err := ParseCorners(s.cfg.CornerSpec)
		if err != nil {
			return err
		}
		rows, err := CornerSweep(s.env, corners)
		if err != nil {
			return err
		}
		cached := 0
		for _, r := range rows {
			if r.Cached {
				cached++
			}
		}
		// Cache-dependent, so Diag: the report must stay identical
		// between cold and warm runs.
		fmt.Fprintf(s.cfg.Diag, "corner reports reloaded %d/%d\n", cached, len(rows))
		RenderCorners(s.out, s.env, rows)
		if s.cfg.CSVDir != "" {
			return CSVCorners(s.cfg.CSVDir, rows)
		}
		return nil
	}},
	{"table1", 0, func(s *suiteRun) error { Table1(s.out); return nil }},
	{"table2", 0, section(Table2, RenderTable2, CSVTable2)},
	{"fig4", 0, func(s *suiteRun) error {
		r, err := Fig4(s.env)
		if err != nil {
			return err
		}
		if r.Truncated {
			fmt.Fprintf(s.cfg.Diag,
				"fig4 path enumeration hit its expansion budget before yielding %d paths per stage; tail counts may undercount some units\n",
				s.env.Opts.Fig4Paths)
		}
		RenderFig4(s.out, r)
		if s.cfg.CSVDir != "" {
			return CSVFig4(s.cfg.CSVDir, r)
		}
		return nil
	}},
	{"fig5", needWA, section(Fig5, RenderFig5, CSVFig5)},
	{"fig6", 0, section(Fig6, RenderFig6, CSVFig6)},
	{"fig7", needRandom, section(Fig7, RenderFig7, CSVFig7)},
	{"fig8", needWA, section(Fig8, RenderFig8, CSVFig8)},
	{"sources", 0, section(Sources, RenderSources, CSVSources)},
	{"power", 0, section(Power, RenderPower, CSVPower)},
	{"process", 0, section(func(e *Env) (*ProcessResult, error) {
		return ProcessVariation(e, 8, 0.04)
	}, RenderProcess, CSVProcess)},
	{"validate", needWA, func(s *suiteRun) error {
		rows, meanErr, err := Validate(s.env, vscale.VR20)
		if err != nil {
			return err
		}
		RenderValidate(s.out, "VR20", rows, meanErr)
		if s.cfg.CSVDir != "" {
			return CSVValidate(s.cfg.CSVDir, rows)
		}
		return nil
	}},
	{"adders", 0, section(AdderAblation, RenderAdders, CSVAdders)},
	{"history", 0, func(s *suiteRun) error {
		rows, err := HistoryAblation(s.env, vscale.VR20)
		if err != nil {
			return err
		}
		RenderHistory(s.out, "VR20", rows)
		return nil
	}},
	{"fig10", needRandom | needWA, func(s *suiteRun) error {
		r, err := Fig10(s.env)
		if err != nil {
			return err
		}
		RenderFig10(s.out, workloads.Names(), r)
		if s.cfg.CSVDir != "" {
			return CSVFig10(s.cfg.CSVDir, workloads.Names(), r)
		}
		return nil
	}},
	{"fig9", needRandom | needWA | needCells, func(s *suiteRun) error {
		RenderFig9(s.out, s.cs)
		if s.cfg.CSVDir != "" {
			return CSVFig9(s.cfg.CSVDir, s.cs)
		}
		return nil
	}},
	{"avm", needRandom | needWA | needCells, func(s *suiteRun) error {
		r, err := AVMAnalysis(s.env, s.cs)
		if err != nil {
			return err
		}
		RenderAVM(s.out, s.env, s.cs, r)
		if s.cfg.CSVDir != "" {
			return CSVAVM(s.cfg.CSVDir, s.cs, r)
		}
		return nil
	}},
}

// Names returns every experiment name RunSuite understands, in
// execution order. "all" additionally selects every one of them.
func Names() []string {
	names := make([]string, len(suite))
	for i, x := range suite {
		names[i] = x.name
	}
	return names
}

// KnownExperiment reports whether name is a selectable experiment
// ("all" included).
func KnownExperiment(name string) bool {
	return name == "all" || slices.ContainsFunc(suite, func(x experiment) bool { return x.name == name })
}

// selection resolves a list of experiment names to suite rows in table
// order. Names are trimmed and blank entries skipped; "all", or a list
// with no names left, selects every row. Unknown names select nothing.
func selection(names []string) []experiment {
	selected := map[string]bool{}
	for _, n := range names {
		if n = strings.TrimSpace(n); n != "" {
			selected[n] = true
		}
	}
	if len(selected) == 0 || selected["all"] {
		return suite
	}
	var rows []experiment
	for _, x := range suite {
		if selected[x.name] {
			rows = append(rows, x)
		}
	}
	return rows
}

// IsInterrupt reports whether err is (or wraps) one of the orderly-stop
// sentinels — a drained run, a canceled context, or an expired
// wall-clock budget — as opposed to a real per-cell failure.
func IsInterrupt(err error) bool {
	return errors.Is(err, ErrDrained) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// PrintBanner writes the run banner: the line every report starts with,
// naming the settings that shape all numbers below it.
func PrintBanner(w io.Writer, opts Options, seed uint64) {
	fmt.Fprintf(w, "teva-experiments: scale=%s runs/cell=%d seed=%#x\n",
		opts.Scale, opts.Runs, seed)
}

// SuiteConfig selects and instruments a RunSuite call.
type SuiteConfig struct {
	// Experiments is the selection (names from Names, or "all"),
	// resolved by selection: names are trimmed, blanks skipped, and a
	// list with no names left means "all".
	Experiments []string
	// CornerSpec is the -corners argument for the corner sweep ("" uses
	// the default set).
	CornerSpec string
	// CSVDir, when non-empty, also writes each experiment's
	// machine-readable CSVs there.
	CSVDir string
	// OmitBanner skips the run banner (the CLI prints it itself, before
	// the substrate is built, so startup isn't silent).
	OmitBanner bool
	// Trace receives the wall-clock "[x completed in …]" lines; nil
	// discards them. Requires Clock.
	Trace io.Writer
	// Diag receives cache-/budget-dependent diagnostics; nil discards.
	Diag io.Writer
	// Clock is the monotonic clock behind Trace durations (the obs
	// registry's clock in both CLIs). nil disables Trace timing.
	Clock obs.Clock
	// OnStart/OnExperiment, when non-nil, observe each experiment as it
	// begins and ends (err is nil on success, the interrupt or failure
	// otherwise). The serving layer turns these into job events.
	OnStart      func(name string)
	OnExperiment func(name string, err error)
	// Shards, when > 1, prewarm the artifact cache with that many
	// supervised teva-worker processes before the suite runs (see
	// internal/shard). The prewarm requires a cache dir and a worker
	// binary; anything that goes wrong — missing prerequisites, crashed
	// or SIGKILLed workers, quarantined poison units — degrades to the
	// in-process run computing the remainder, so the report bytes never
	// depend on sharding.
	Shards int
	// ShardWorkerBin is the worker executable for Shards > 1.
	ShardWorkerBin string
	// ShardWorkerEnv, when non-nil, is the complete K=V environment for
	// every worker process (chaos hooks ride through here as
	// os.Environ() plus extras); nil workers inherit this process's
	// environment.
	ShardWorkerEnv []string
	// ShardKillAfterUnits, when > 0, makes the supervisor SIGKILL one
	// live worker after that many units complete — the deterministic
	// mid-campaign crash used by the chaos CI job.
	ShardKillAfterUnits int
}

// RunSuite runs the selected experiments against env in the canonical
// order, writing the deterministic report to out. It returns nil when
// every selected experiment completed, an IsInterrupt error when a
// drain/cancel stopped the run early (completed cells are cached), or
// the first hard failure wrapped with its experiment name.
func RunSuite(env *Env, cfg SuiteConfig, out io.Writer) error {
	if cfg.Diag == nil {
		cfg.Diag = io.Discard
	}
	if !cfg.OmitBanner {
		PrintBanner(out, env.Opts, env.F.Cfg.Seed)
	}
	if cfg.Shards > 1 {
		shardPrewarm(env, cfg)
	}
	reg := env.F.Cfg.Metrics
	s := &suiteRun{env: env, out: out, cfg: &cfg}
	stopped := func() error {
		if err := env.ctx.Err(); err != nil {
			return err
		}
		return ErrDrained
	}

	// step runs one named stage, the campaign matrix build or a table
	// row, and returns the error that ends the suite, if any.
	step := func(name string, fn func() error) error {
		if env.Draining() {
			return stopped()
		}
		if cfg.OnStart != nil {
			cfg.OnStart(name)
		}
		sp := reg.Phase("exp/" + name)
		err := fn()
		if cfg.OnExperiment != nil {
			cfg.OnExperiment(name, err)
		}
		switch {
		case err == nil:
			sp.End()
			return nil
		case IsInterrupt(err):
			fmt.Fprintf(cfg.Diag, "%s interrupted: %v\n", name, err)
			return err
		default:
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	for _, x := range selection(cfg.Experiments) {
		if x.needs&needCells != 0 && s.cs == nil {
			// A partial matrix would make the report depend on the
			// abort point, so an interrupted build skips the figures;
			// its completed cells are already in the cache.
			if err := step("campaigns", func() (err error) {
				s.cs, err = RunCampaigns(env)
				return err
			}); err != nil {
				return err
			}
		}
		var t0 int64
		if cfg.Clock != nil {
			t0 = cfg.Clock()
		}
		if err := step(x.name, func() error { return x.run(s) }); err != nil {
			return err
		}
		if cfg.Trace != nil && cfg.Clock != nil {
			fmt.Fprintf(cfg.Trace, "[%s completed in %s]\n",
				x.name, time.Duration(cfg.Clock()-t0).Round(time.Millisecond))
		}
	}
	if env.Draining() {
		return stopped()
	}
	return nil
}
