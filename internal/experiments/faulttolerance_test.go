package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"teva/internal/artifact"
	"teva/internal/chaos"
	"teva/internal/core"
	"teva/internal/errmodel"
	"teva/internal/guard"
	"teva/internal/workloads"
)

func TestForEachLimitFailsFast(t *testing.T) {
	const workers = 4
	// Tasks after the failing one block until the fail-fast cancel
	// reaches them, so the bound below holds however the goroutines are
	// scheduled: tasks 0-3 plus at most one blocked task per other worker.
	// The deadline turns a fail-fast that never cancels into a failure
	// instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var executed atomic.Int64
	err := forEachLimit(ctx, nil, workers, 1000, func(ctx context.Context, i int) error {
		executed.Add(1)
		switch {
		case i == 3:
			return errors.New("hard failure in task 3")
		case i > 3:
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 3") {
		t.Fatalf("missing root cause: %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("fail-fast never canceled the in-flight tasks: %v", err)
	}
	if n := executed.Load(); n > 4+workers-1 {
		t.Fatalf("fail-fast still executed %d of 1000 tasks", n)
	}
}

func TestForEachLimitIsolatesPanicsAndJoinsAll(t *testing.T) {
	var executed atomic.Int64
	err := forEachLimit(context.Background(), nil, 4, 100, func(ctx context.Context, i int) error {
		executed.Add(1)
		if i == 3 || i == 60 {
			return guard.Recovered(fmt.Sprintf("task %d", i), func() error {
				panic("poisoned cell")
			})
		}
		return nil
	})
	if n := executed.Load(); n != 100 {
		t.Fatalf("panic must not stop the matrix: executed %d of 100", n)
	}
	if !guard.IsPanic(err) {
		t.Fatalf("panics lost in the join: %v", err)
	}
	for _, want := range []string{"task 3", "task 60", "poisoned cell"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q: %v", want, err)
		}
	}
}

func TestForEachLimitDrainStopsDispatch(t *testing.T) {
	drain := make(chan struct{})
	var executed atomic.Int64
	err := forEachLimit(context.Background(), drain, 2, 1000, func(ctx context.Context, i int) error {
		if executed.Add(1) == 10 {
			close(drain)
		}
		return nil
	})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	if n := executed.Load(); n >= 1000 {
		t.Fatalf("drain did not stop dispatch: %d tasks ran", n)
	}
}

func TestForEachLimitCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int64
	err := forEachLimit(ctx, nil, 4, 100, func(ctx context.Context, i int) error {
		executed.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if executed.Load() != 0 {
		t.Fatal("canceled run must not dispatch tasks")
	}
}

// chaosEnv builds a small, self-contained experiment environment whose
// artifact store sits on a (possibly fault-injecting) filesystem.
func chaosEnv(t *testing.T, opts chaos.Options) *Env {
	t.Helper()
	var store *artifact.Store
	var err error
	if opts == (chaos.Options{}) {
		store, err = artifact.Open(t.TempDir())
	} else {
		store, err = chaos.OpenStore(t.TempDir(), nil, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	store.SetSleep(func(time.Duration) {}) // no real backoff under test
	f, err := core.New(core.Config{
		Seed:             0xF00D,
		RandomOperands:   600,
		WorkloadOperands: 400,
		DASample:         50000,
		Artifacts:        store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(f, Options{Scale: workloads.Tiny, Runs: 8})
}

// TestChaosMatrixIsByteIdentical is the tentpole guarantee: with 10%
// write failures and 10% read faults of every flavor injected into the
// artifact store, the campaign matrix must render byte-for-byte the same
// report as a fault-free run — every fault degrades to a cache miss or a
// retried write, never a wrong result.
func TestChaosMatrixIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two campaign matrix builds")
	}
	render := func(e *Env) string {
		cs, err := RunCampaigns(e)
		if err != nil {
			t.Fatalf("matrix under chaos must still complete: %v", err)
		}
		if len(cs.Cells) != 7*2*3 {
			t.Fatalf("incomplete matrix: %d cells", len(cs.Cells))
		}
		var buf bytes.Buffer
		RenderFig9(&buf, cs)
		return buf.String()
	}
	clean := render(chaosEnv(t, chaos.Options{}))
	faulty := render(chaosEnv(t, chaos.Options{
		Seed:      0xBAD5EED,
		WriteFail: 0.1,
		ReadFail:  0.1,
		TornRead:  0.1,
		FlipRead:  0.1,
	}))
	if clean != faulty {
		t.Fatalf("chaos changed the results:\n--- clean ---\n%s\n--- faulty ---\n%s", clean, faulty)
	}
}

// TestChaosPanickingCellsAreIsolated injects panics on campaign-cell
// artifact I/O: each affected cell must surface as one named error in the
// join while the remaining cells complete normally.
func TestChaosPanickingCellsAreIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign matrix build")
	}
	e := chaosEnv(t, chaos.Options{Seed: 1, Panic: 0.05, PanicOn: "campaign-"})
	cs, err := RunCampaigns(e)
	if err == nil {
		t.Fatal("expected at least one injected panic at 5% over 42 cells")
	}
	if !guard.IsPanic(err) {
		t.Fatalf("injected panics must surface as PanicErrors: %v", err)
	}
	for _, want := range []string{chaos.PanicValue, "panic in "} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error lost the panic identity (%q): %v", want, err)
		}
	}
	if len(cs.Cells) == 0 || len(cs.Cells) >= 7*2*3 {
		t.Fatalf("want a partial matrix (some cells poisoned, the rest complete), got %d of 42", len(cs.Cells))
	}
	// The poisoned cells and the completed cells must partition the matrix:
	// every missing cell is named in the joined error by its memo key.
	named := 0
	for _, w := range mustNames(t, e) {
		for _, level := range e.Levels() {
			for _, kind := range ModelKinds() {
				key := cellKey(w, kind, level.Name)
				if cs.Cells[key] == nil && strings.Contains(err.Error(), "panic in "+key) {
					named++
				}
			}
		}
	}
	if named != 7*2*3-len(cs.Cells) {
		t.Fatalf("%d cells missing but %d named in the error:\n%v", 7*2*3-len(cs.Cells), named, err)
	}
}

func mustNames(t *testing.T, e *Env) []string {
	t.Helper()
	ws, err := e.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// TestDeadCacheIsNonFatal: a store whose every write fails (ENOSPC on all
// attempts) must not fail the experiment — results are computed, the
// failure is counted on artifact.write_errors, and the run goes on.
func TestDeadCacheIsNonFatal(t *testing.T) {
	e := chaosEnv(t, chaos.Options{Seed: 3, WriteFail: 1.0})
	ws, err := e.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.CellCtx(context.Background(), ws[0], errmodel.WA, e.Levels()[0])
	if err != nil {
		t.Fatalf("dead cache must not fail the cell: %v", err)
	}
	if r == nil || r.Runs != e.Opts.Runs {
		t.Fatalf("degenerate result %+v", r)
	}
	if st := e.F.Cfg.Artifacts.Stats(); st.WriteErrors == 0 {
		t.Fatalf("write failures not counted: %+v", st)
	}
}

func TestRunCampaignsHonorsPreDrain(t *testing.T) {
	e := chaosEnv(t, chaos.Options{})
	e.Drain()
	if !e.Draining() {
		t.Fatal("Draining must report the drain request")
	}
	cs, err := RunCampaigns(e)
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	if len(cs.Cells) != 0 {
		t.Fatalf("pre-drained run dispatched %d cells", len(cs.Cells))
	}
}

func TestRunCampaignsHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f, err := core.New(core.Config{
		Seed:             0xF00D,
		RandomOperands:   600,
		WorkloadOperands: 400,
		DASample:         50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnvContext(ctx, f, Options{Scale: workloads.Tiny, Runs: 8})
	cs, err := RunCampaigns(e)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(cs.Cells) != 0 {
		t.Fatalf("canceled run produced %d cells", len(cs.Cells))
	}
}

// canceledEnv is chaosEnv's fault-free Env over an already-canceled
// context.
func canceledEnv(t *testing.T) (*Env, *artifact.Store) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := chaosEnv(t, chaos.Options{})
	return NewEnvContext(ctx, e.F, e.Opts), e.F.Cfg.Artifacts
}

// TestFig7HonorsCanceledContext: Figure 7's characterization runs under
// the Env's context, so a canceled Env returns the cancellation instead
// of characterizing every op (or rendering a nil summary).
func TestFig7HonorsCanceledContext(t *testing.T) {
	e, _ := canceledEnv(t)
	profiles, err := Fig7(e)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if profiles != nil {
		t.Fatalf("canceled Fig7 returned profiles %v", profiles)
	}
}

// TestExtensionExperimentsHonorCanceledContext: the ad-hoc DTA streams
// behind the extension experiments, and the netlist-only Figure 4 and
// adder ablation, stop with the Env's context, and work cut short is
// never written to the artifact store.
func TestExtensionExperimentsHonorCanceledContext(t *testing.T) {
	for name, run := range map[string]func(*Env) error{
		"fig4":    func(e *Env) error { _, err := Fig4(e); return err },
		"adders":  func(e *Env) error { _, err := AdderAblation(e); return err },
		"fig6":    func(e *Env) error { _, err := Fig6(e); return err },
		"sources": func(e *Env) error { _, err := Sources(e); return err },
		"power":   func(e *Env) error { _, err := Power(e); return err },
		"history": func(e *Env) error { _, err := HistoryAblation(e, e.Levels()[0]); return err },
		"process": func(e *Env) error { _, err := ProcessVariation(e, 1, 0.05); return err },
		"validate": func(e *Env) error {
			_, _, err := Validate(e, e.Levels()[0])
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			e, store := canceledEnv(t)
			if err := run(e); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if st := store.Stats(); st.Writes != 0 {
				t.Fatalf("canceled run cached %d artifacts", st.Writes)
			}
		})
	}
}
