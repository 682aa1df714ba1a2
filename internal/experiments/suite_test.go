package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"teva/internal/artifact"
	"teva/internal/campaign"
	"teva/internal/core"
	"teva/internal/dta"
	"teva/internal/obs"
	"teva/internal/workloads"
)

func TestNamesKnownAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate experiment name %q", n)
		}
		seen[n] = true
		if !KnownExperiment(n) {
			t.Fatalf("Names entry %q not known", n)
		}
	}
	if !KnownExperiment("all") {
		t.Fatal("all must be selectable")
	}
	for _, bad := range []string{"fig77", "", "ALL", " fig7"} {
		if KnownExperiment(bad) {
			t.Fatalf("KnownExperiment(%q) = true", bad)
		}
	}
}

// TestApplyPresetQuickWinsOverFull pins the presets Spec.Effective
// applies: -quick shrinks every knob and wins over -full, which restores
// the paper's sample sizes.
func TestApplyPresetQuickWinsOverFull(t *testing.T) {
	opts, cfg := effective(t, Spec{Quick: true, Full: true})
	if opts.Scale != workloads.Tiny || opts.Runs != 24 {
		t.Fatalf("quick preset: scale=%v runs=%d", opts.Scale, opts.Runs)
	}
	if cfg.RandomOperands != 4000 || cfg.WorkloadOperands != 2000 {
		t.Fatalf("quick preset operands: %d/%d", cfg.RandomOperands, cfg.WorkloadOperands)
	}

	opts, cfg = effective(t, Spec{Full: true})
	if cfg.RandomOperands != 100000 || opts.Runs != 1068 {
		t.Fatalf("full preset: operands %d, runs %d", cfg.RandomOperands, opts.Runs)
	}
}

// effective resolves sp, failing the test on an invalid spec.
func effective(t *testing.T, sp Spec) (Options, core.Config) {
	t.Helper()
	opts, cfg, err := sp.Effective()
	if err != nil {
		t.Fatal(err)
	}
	return opts, cfg
}

func TestIsInterrupt(t *testing.T) {
	for _, err := range []error{
		ErrDrained,
		context.Canceled,
		context.DeadlineExceeded,
		fmt.Errorf("fig9: %w", ErrDrained),
		fmt.Errorf("budget: %w", context.DeadlineExceeded),
	} {
		if !IsInterrupt(err) {
			t.Fatalf("IsInterrupt(%v) = false", err)
		}
	}
	for _, err := range []error{nil, errors.New("cell exploded")} {
		if IsInterrupt(err) {
			t.Fatalf("IsInterrupt(%v) = true", err)
		}
	}
}

func TestPrintBanner(t *testing.T) {
	var buf bytes.Buffer
	opts := DefaultOptions()
	opts.Scale = workloads.Tiny
	opts.Runs = 24
	PrintBanner(&buf, opts, 0xF00D)
	want := "teva-experiments: scale=tiny runs/cell=24 seed=0xf00d\n"
	if buf.String() != want {
		t.Fatalf("banner %q, want %q", buf.String(), want)
	}
}

// TestRunSuiteSelectionDeterministic runs a cheap selection twice and
// requires byte-identical reports — the property the serving layer's
// whole contract rests on.
func TestRunSuiteSelectionDeterministic(t *testing.T) {
	run := func() []byte {
		opts, cfg := effective(t, Spec{Quick: true})
		f, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		env := NewEnv(f, opts)
		var buf bytes.Buffer
		if err := RunSuite(env, SuiteConfig{Experiments: []string{"table1", "design"}}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("RunSuite not deterministic:\n--- a\n%s\n--- b\n%s", a, b)
	}
	if !bytes.HasPrefix(a, []byte("teva-experiments: ")) {
		t.Fatalf("report does not start with the banner:\n%s", a)
	}
}

// TestRunSuiteUnknownSelectionRunsNothing pins the contract that the
// suite driver trusts its caller's validation: selecting only unknown
// names runs zero experiments and reports success with a bare banner.
func TestRunSuiteUnknownSelectionRunsNothing(t *testing.T) {
	opts, cfg := effective(t, Spec{Quick: true})
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(f, opts)
	var buf bytes.Buffer
	if err := RunSuite(env, SuiteConfig{Experiments: []string{"fig77"}, OmitBanner: true}, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("unknown selection produced output:\n%s", buf.Bytes())
	}
}

// quickEnv builds a -quick preset environment over store (nil: no
// cache) with its own metrics registry.
func quickEnv(t *testing.T, store *artifact.Store, runs int) (*Env, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(nil)
	opts, cfg := effective(t, Spec{Quick: true})
	cfg.Metrics, cfg.Artifacts = reg, store
	if runs > 0 {
		opts.Runs = runs
	}
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(f, opts), reg
}

// TestShardUnitsTrimsNames pins that shard planning resolves names
// exactly as RunSuite does: a space after the comma in -exp "fig7, fig9"
// must not drop fig9's summaries and cells from the prewarm.
func TestShardUnitsTrimsNames(t *testing.T) {
	env, _ := quickEnv(t, nil, 0)
	for _, names := range [][]string{{"fig7", "fig9"}, {"fig7", " fig9"}} {
		units, err := ShardUnits(env, names)
		if err != nil {
			t.Fatal(err)
		}
		if len(units) != 80 {
			t.Fatalf("ShardUnits(%q) planned %d units, want 80 (24 random, 14 WA, 42 cells)", names, len(units))
		}
	}
}

// TestSelectionOrderAndTrim checks that a selection comes back in table
// order whatever order it was given in, and that blank entries are
// skipped rather than selecting nothing.
func TestSelectionOrderAndTrim(t *testing.T) {
	var got []string
	for _, x := range selection([]string{" avm", "table1", "", "fig77", "design "}) {
		got = append(got, x.name)
	}
	if want := []string{"design", "table1", "avm"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("selection = %v, want %v", got, want)
	}
	for _, names := range [][]string{nil, {""}, {" all"}} {
		if n := len(selection(names)); n != len(Names()) {
			t.Fatalf("selection(%q) has %d rows, want all %d", names, n, len(Names()))
		}
	}
}

// TestPrewarmCompleteness makes the table's needs column checkable: for
// every experiment that declares needs, executing exactly the units
// ShardUnits plans for it must leave the experiment itself no DTA pair
// to analyze and no injection run to execute.
func TestPrewarmCompleteness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the characterizations and cells of every shardable experiment")
	}
	for _, x := range suite {
		if x.needs == 0 {
			continue
		}
		t.Run(x.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *artifact.Store {
				store, err := artifact.OpenIn(dir, nil)
				if err != nil {
					t.Fatal(err)
				}
				return store
			}
			warm, _ := quickEnv(t, open(), 4)
			units, err := ShardUnits(warm, []string{x.name})
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range units {
				if _, err := ExecuteUnit(context.Background(), warm, u); err != nil {
					t.Fatalf("unit %s: %v", u.ID(), err)
				}
			}
			env, reg := quickEnv(t, open(), 4)
			if err := RunSuite(env, SuiteConfig{Experiments: []string{x.name}}, io.Discard); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			for _, m := range []string{dta.MetricPairs, campaign.MetricRuns} {
				if n := snap.Counter(m); n != 0 {
					t.Errorf("%s after prewarming %d units: %s = %d, want 0", x.name, len(units), m, n)
				}
			}
		})
	}
}
