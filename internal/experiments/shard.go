package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"teva/internal/artifact"
	"teva/internal/core"
	"teva/internal/dta"
	"teva/internal/errmodel"
	"teva/internal/fpu"
	"teva/internal/shard"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// This file is the bridge between the experiment pipeline and
// internal/shard's process supervision. Sharding is cache prewarming:
// worker processes compute characterization summaries and campaign cells
// into the shared artifact store, then the supervisor process runs the
// suite exactly as an unsharded run would — every prewarmed unit
// reloads, everything else (quarantined poison units, units lost to dead
// workers) is computed in-process. The report bytes are therefore
// identical to the single-process run by construction, and the
// degradation ladder (N workers -> fewer -> zero) needs no special
// casing anywhere in the experiment code.

// runPlan is the run description shipped to shard workers: the resolved
// option/config pair itself (core.Config marshals every field but its
// runtime handles) plus the shared cache directory. A field added to
// either type therefore reaches the workers without touching this file
// or internal/shard.
type runPlan struct {
	Options  Options
	Config   core.Config
	CacheDir string
}

// PlanOf serializes env's resolved run description for a shard
// supervisor, with env's worker budget split across shards processes so
// N workers don't oversubscribe the machine N-fold (worker counts never
// change results, only speed).
func PlanOf(e *Env, shards int) (json.RawMessage, error) {
	p := runPlan{Options: e.Opts, Config: e.F.Cfg}
	p.Config.Workers = max(1, e.workers()/max(1, shards))
	if e.F.Cfg.Artifacts != nil {
		p.CacheDir = e.F.Cfg.Artifacts.Dir()
	}
	return json.Marshal(p)
}

// NewEnvFromPlan rebuilds a worker-side environment from a supervisor's
// PlanOf bytes, sharing its cache directory: the worker's summaries and
// cells land under exactly the keys the supervisor's in-process run
// loads. Unknown fields are an error, so a worker built from a
// different tree than its supervisor fails loudly instead of dropping a
// setting.
func NewEnvFromPlan(ctx context.Context, plan []byte) (*Env, error) {
	var p runPlan
	dec := json.NewDecoder(bytes.NewReader(plan))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	if p.CacheDir != "" {
		store, err := artifact.OpenIn(p.CacheDir, nil)
		if err != nil {
			return nil, fmt.Errorf("plan cache dir: %w", err)
		}
		p.Config.Artifacts = store
	}
	f, err := core.New(p.Config)
	if err != nil {
		return nil, err
	}
	return NewEnvContext(ctx, f, p.Options), nil
}

// ShardUnits plans the work-unit set for an experiment selection: the
// random-operand characterizations, workload characterizations, and
// campaign cells the selected experiments will consume, as declared by
// the needs column of the suite table. Names are resolved exactly as
// RunSuite resolves them. Units the selection does not need are simply
// not planned — the prewarm is an accelerator, so under-planning costs
// time, never correctness.
//
// Stages order the schedule: summaries (stage 0) complete before
// campaign cells (stage 1) lease, so every cell's model build on every
// worker is a cache read instead of a duplicated characterization.
func ShardUnits(e *Env, names []string) ([]shard.Unit, error) {
	var needs need
	for _, x := range selection(names) {
		needs |= x.needs
	}
	var units []shard.Unit
	if needs&needRandom != 0 {
		for _, level := range e.Levels() {
			for _, op := range fpu.Ops() {
				units = append(units, shard.Unit{
					Kind: shard.UnitRandom, Level: level.Name,
					Op: int(op), OpName: op.String(), Stage: 0,
				})
			}
		}
	}
	if needs&needWA != 0 {
		ws, err := e.Workloads()
		if err != nil {
			return nil, err
		}
		for _, level := range e.Levels() {
			for _, w := range ws {
				units = append(units, shard.Unit{
					Kind: shard.UnitWA, Level: level.Name,
					Workload: w.Name, Stage: 0,
				})
			}
		}
	}
	if needs&needCells != 0 {
		cells, err := e.cellMatrix()
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			units = append(units, shard.Unit{
				Kind: shard.UnitCell, Level: c.level.Name,
				Workload: c.w.Name, Model: string(c.kind), Stage: 1,
			})
		}
	}
	return units, nil
}

// unitSum is the canonical checksum of a unit's result value — what a
// worker reports to the tracker, and what late-completion reconciliation
// compares. JSON marshaling is deterministic for these result types
// (struct fields in order, map keys sorted), so byte-identical results
// produce identical sums across processes.
func unitSum(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// levelByName resolves a unit-carried level name against the evaluated
// set.
func (e *Env) levelByName(name string) (vscale.VRLevel, error) {
	for _, level := range e.Levels() {
		if level.Name == name {
			return level, nil
		}
	}
	if name == vscale.Nominal.Name {
		return vscale.Nominal, nil
	}
	return vscale.VRLevel{}, fmt.Errorf("unknown voltage level %q", name)
}

// ExecuteUnit computes one shard work unit against env, returning the
// result checksum. The computation is the same code path the in-process
// suite runs — ExecuteUnit exists only to give it per-unit granularity
// and a canonical checksum.
func ExecuteUnit(ctx context.Context, e *Env, u shard.Unit) (string, error) {
	level, err := e.levelByName(u.Level)
	if err != nil {
		return "", err
	}
	switch u.Kind {
	case shard.UnitRandom:
		if u.Op < 0 || u.Op >= int(fpu.NumOps) {
			return "", fmt.Errorf("unit %s: op ordinal %d out of range", u.ID(), u.Op)
		}
		s, err := e.F.RandomSummaryOpCtx(ctx, level, fpu.Op(u.Op))
		if err != nil {
			return "", err
		}
		return unitSum(s)
	case shard.UnitWA:
		w, err := e.workloadByName(u.Workload)
		if err != nil {
			return "", err
		}
		sums, err := e.WASummaries(level, w)
		if err != nil {
			return "", err
		}
		// Marshal in fpu.Ops order: map iteration order must not leak
		// into the checksum.
		ordered := make([]*dta.Summary, 0, len(sums))
		for _, op := range fpu.Ops() {
			if s, ok := sums[op]; ok {
				ordered = append(ordered, s)
			}
		}
		return unitSum(ordered)
	case shard.UnitCell:
		w, err := e.workloadByName(u.Workload)
		if err != nil {
			return "", err
		}
		r, err := e.CellCtx(ctx, w, errmodel.Kind(u.Model), level)
		if err != nil {
			return "", err
		}
		return unitSum(r)
	default:
		return "", fmt.Errorf("unknown unit kind %q", u.Kind)
	}
}

func (e *Env) workloadByName(name string) (*workloads.Workload, error) {
	ws, err := e.Workloads()
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// WorkerOptions configures one worker process (cmd/teva-worker, or the
// test re-exec harness).
type WorkerOptions struct {
	// Supervisor is the coordinator's dial address.
	Supervisor string
	// ID is the supervisor-assigned worker identity.
	ID string
	// Diag receives the worker's progress notes (nil: discarded). The
	// supervisor pipes it, line-prefixed, onto its own Diag stream.
	Diag io.Writer
	// KillUnitSub, when non-empty, SIGKILLs this process the moment it
	// leases a unit whose ID contains the substring — the poison-cell
	// chaos hook (restarted workers inherit it, so the unit strikes out
	// and is quarantined).
	KillUnitSub string
}

// WorkerMain is the worker process body: fetch the plan, rebuild the
// environment, then lease/execute/complete until the supervisor reports
// the unit set drained. It returns nil on a clean drain; the supervisor
// treats any exit before that as a fault and reassigns the worker's
// lease.
func WorkerMain(ctx context.Context, o WorkerOptions) error {
	diag := o.Diag
	if diag == nil {
		diag = io.Discard
	}
	c := shard.NewClient(o.Supervisor)
	plan, err := c.FetchPlan(ctx)
	if err != nil {
		return fmt.Errorf("worker %s: fetch plan: %w", o.ID, err)
	}
	env, err := NewEnvFromPlan(ctx, plan)
	if err != nil {
		return fmt.Errorf("worker %s: build env: %w", o.ID, err)
	}
	fmt.Fprintf(diag, "worker %s: substrate ready (seed=%#x scale=%s workers=%d)\n",
		o.ID, env.F.Cfg.Seed, env.Opts.Scale, env.F.Cfg.Workers)
	completed := 0
	return shard.ClientLoop(ctx, c, o.ID, func(ctx context.Context, u shard.Unit) (string, error) {
		if o.KillUnitSub != "" && strings.Contains(u.ID(), o.KillUnitSub) {
			fmt.Fprintf(diag, "worker %s: chaos self-SIGKILL on unit %s\n", o.ID, u.ID())
			killSelf()
		}
		sum, err := ExecuteUnit(ctx, env, u)
		if err != nil {
			fmt.Fprintf(diag, "worker %s: unit %s failed: %v\n", o.ID, u.ID(), err)
			return "", err
		}
		completed++
		fmt.Fprintf(diag, "worker %s: unit %s done (%d total)\n", o.ID, u.ID(), completed)
		return sum, nil
	})
}

// killSelf delivers SIGKILL to the current process: no deferred cleanup,
// no exit handlers — the closest portable stand-in for an OOM kill.
func killSelf() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		_ = p.Kill()
	}
	select {} // unreachable on delivery; block rather than return
}

// shardPrewarm runs the sharded cache prewarm for a RunSuite call. It
// never fails the run: every fault — no cache dir, no worker binary,
// workers all dead, poison units — degrades to the in-process run
// computing whatever is missing, and is reported on cfg.Diag only (stdout
// must stay byte-identical to the unsharded run).
func shardPrewarm(e *Env, cfg SuiteConfig) {
	diag := cfg.Diag
	if e.F.Cfg.Artifacts == nil {
		fmt.Fprintf(diag, "shard: -shards %d ignored: sharding needs a shared -cache-dir; running in-process\n", cfg.Shards)
		return
	}
	if cfg.ShardWorkerBin == "" {
		fmt.Fprintf(diag, "shard: -shards %d ignored: no worker binary configured; running in-process\n", cfg.Shards)
		return
	}
	if e.Draining() {
		return
	}
	units, err := ShardUnits(e, cfg.Experiments)
	if err != nil {
		fmt.Fprintf(diag, "shard: unit planning failed (%v); running in-process\n", err)
		return
	}
	if len(units) == 0 {
		fmt.Fprintf(diag, "shard: selection has no shardable units; running in-process\n")
		return
	}
	plan, err := PlanOf(e, cfg.Shards)
	if err != nil {
		fmt.Fprintf(diag, "shard: plan encoding failed (%v); running in-process\n", err)
		return
	}
	sup, err := shard.NewSupervisor(units, plan, shard.SupervisorConfig{
		Shards:         cfg.Shards,
		WorkerBin:      cfg.ShardWorkerBin,
		WorkerEnv:      cfg.ShardWorkerEnv,
		KillAfterUnits: cfg.ShardKillAfterUnits,
		Metrics:        e.F.Cfg.Metrics,
		Diag:           diag,
	})
	if err != nil {
		fmt.Fprintf(diag, "shard: supervisor setup failed (%v); running in-process\n", err)
		return
	}
	fmt.Fprintf(diag, "shard: prewarming %d units across %d workers (%s)\n",
		len(units), cfg.Shards, cfg.ShardWorkerBin)
	rep, err := sup.Run(e.ctx)
	if err != nil {
		fmt.Fprintf(diag, "shard: prewarm stopped (%v); the in-process run computes the remainder\n", err)
	}
	fmt.Fprintf(diag, "%s\n", rep.String())
	if !rep.Completed {
		fmt.Fprintf(diag, "shard: prewarm incomplete; the in-process run computes the remainder\n")
	}
}
