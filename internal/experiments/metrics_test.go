package experiments

import (
	"bytes"
	"context"
	"testing"

	"teva/internal/core"
	"teva/internal/errmodel"
	"teva/internal/obs"
	"teva/internal/workloads"
)

// metricsEnv builds a fresh Env wired to its own nil-clock registry, so
// every phase duration is zero and the full snapshot — timers included —
// must be byte-identical across runs of the same work.
func metricsEnv(t *testing.T) (*Env, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(nil)
	f, err := core.New(core.Config{
		Seed:             0xF00D,
		RandomOperands:   2000,
		WorkloadOperands: 1200,
		DASample:         100000,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(f, Options{Scale: workloads.Tiny, Runs: 12}), reg
}

func runOneCell(t *testing.T) obs.Snapshot {
	t.Helper()
	e, reg := metricsEnv(t)
	ws, err := e.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CellCtx(context.Background(), ws[0], errmodel.WA, e.Levels()[0]); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot()
}

// TestMetricsSnapshotIsByteDeterministic is the acceptance check for the
// obs wiring: the same workload cell, run twice from scratch, must yield
// byte-identical JSON snapshots (the nil clock removes the only
// nondeterministic field).
func TestMetricsSnapshotIsByteDeterministic(t *testing.T) {
	a := runOneCell(t).JSON()
	b := runOneCell(t).JSON()
	if !bytes.Equal(a, b) {
		t.Errorf("metrics snapshots differ between identical runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestMetricsSnapshotCoversLayers checks that one cell's worth of work
// actually touches every instrumented layer: dta stream analysis,
// campaign fan-out, and the experiment memos.
func TestMetricsSnapshotCoversLayers(t *testing.T) {
	snap := runOneCell(t)
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"dta.stream_calls", "dta.pairs_analyzed", "dta.cycles_analyzed",
		"campaign.cells", "campaign.runs", "campaign.golden_runs",
		"experiments.memo_misses",
	} {
		if counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0 after a campaign cell", name, counters[name])
		}
	}
	phases := map[string]bool{}
	for _, p := range snap.Phases {
		phases[p.Path] = true
		if p.Nanos != 0 {
			t.Errorf("phase %s has nonzero nanos %d under a nil clock", p.Path, p.Nanos)
		}
	}
	for _, want := range []string{"dta", "campaign"} {
		if !phases[want] {
			t.Errorf("phase %q missing from snapshot (have %v)", want, snap.Phases)
		}
	}
	hists := 0
	for _, h := range snap.Histograms {
		if h.Name == "campaign.injections_per_run" && h.Total() > 0 {
			hists++
		}
	}
	if hists != 1 {
		t.Errorf("campaign.injections_per_run histogram missing or empty")
	}
}
