package main

import (
	"fmt"
	"os"
	"time"

	"teva/internal/artifact"
	"teva/internal/core"
	"teva/internal/cpu"
	"teva/internal/experiments"
	"teva/internal/obs"
	"teva/internal/trace"
	"teva/internal/workloads"
)

// base is what every workload sets up first, as the CLIs do: a metrics
// registry, an artifact store in a fresh directory, the framework (the
// gate-level FPU), the experiment environment and its benchmarks, plus
// one golden run of each benchmark on the simulator.
type base struct {
	o      *options
	dir    string
	cfg    core.Config
	clock  obs.Clock
	reg    *obs.Registry
	store  *artifact.Store
	f      *core.Framework
	env    *experiments.Env
	ws     []*workloads.Workload
	golden map[string]cpu.Result
	// traced-set-up totals for the per-layer metrics
	traceInstr, traces float64
	setupSnap          obs.Snapshot
}

// batchConfig is the framework configuration of the batch workloads: the
// run's seed, one worker and the quick preset's DTA operand counts.
func batchConfig(o *options) core.Config {
	return core.Config{
		Seed:             o.seed,
		Workers:          1,
		RandomOperands:   o.size.randomOps,
		WorkloadOperands: o.size.workloadOps,
	}
}

// newBase sets up the substrate for cfg, which newBase completes with
// the run's store and registry.
func newBase(o *options, rec *recorder, opts experiments.Options, cfg core.Config) (*base, error) {
	dir, err := os.MkdirTemp(o.dir, "store-")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	clock := func() int64 { return int64(time.Since(start)) }
	reg := obs.NewRegistry(clock)
	store, err := artifact.OpenIn(dir, reg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b := &base{o: o, dir: dir, cfg: cfg, clock: clock, reg: reg, store: store, golden: map[string]cpu.Result{}}
	err = rec.do("core.new", "", func() error {
		var err error
		b.f, err = core.New(b.config(store))
		return err
	})
	if err == nil {
		b.env = experiments.NewEnv(b.f, opts)
		err = rec.do("workloads.build", "", func() error {
			var err error
			b.ws, err = b.env.Workloads()
			return err
		})
	}
	for _, w := range b.ws {
		if err != nil {
			break
		}
		err = rec.do("cpu.golden", w.Name, func() error {
			res := cpu.New(w.Program, cpu.Config{TrapFPInvalid: true}).Run(1 << 40)
			if res.Status != cpu.Halted {
				return fmt.Errorf("golden %s: %v (%s)", w.Name, res.Status, res.Reason)
			}
			b.golden[w.Name] = res
			return nil
		})
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// config is the workload's framework configuration over store, reporting
// to the run's registry.
func (b *base) config(store *artifact.Store) core.Config {
	cfg := b.cfg
	cfg.Metrics = b.reg
	cfg.Artifacts = store
	return cfg
}

// capture records one benchmark's operand trace through env.
func (b *base) capture(rec *recorder, env *experiments.Env, w *workloads.Workload) (*trace.Trace, error) {
	var tr *trace.Trace
	err := rec.do("trace.capture", w.Name, func() error {
		var err error
		tr, err = env.Trace(w)
		return err
	})
	if err == nil && rec != nil {
		b.traceInstr += float64(tr.TotalInstr)
		b.traces++
	}
	return tr, err
}

func (b *base) close() { os.RemoveAll(b.dir) }

func (b *base) counters() obs.Snapshot { return b.reg.Snapshot() }

// check has nothing to verify beyond the per-op digests.
func (b *base) check(*recorder, []*tally) error { return nil }

// layers sets the per-layer metrics: the substrate's, and counts from the
// run's registry over the traced set-up and steps.
func (b *base) layers(spans []span, phases []*tally, m metrics) {
	b.substrateLayers(spans, m)
	counterMetrics(tracedCounters(b.setupSnap, phases[1]), spans, m)
}

// substrateLayers sets the golden-run and trace metrics.
func (b *base) substrateLayers(spans []span, m metrics) {
	var instr, cycles float64
	for _, w := range b.ws {
		instr += float64(b.golden[w.Name].Instret)
		cycles += float64(b.golden[w.Name].Cycles)
	}
	m.set("cpu.golden_instr", "count", instr)
	m.set("cpu.golden_cycles", "count", cycles)
	if cycles > 0 {
		m.set("cpu.ipc", "ratio", instr/cycles)
	}
	if secs := sum(selfSamples(spans)["cpu.golden"]); secs > 0 {
		m.set("cpu.golden_mips", "MIPS", instr/secs/1e6)
	}
	if b.traces > 0 {
		m.set("trace.instr", "count", b.traceInstr/b.traces)
	}
}
