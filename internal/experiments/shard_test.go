package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"teva/internal/artifact"
	"teva/internal/core"
	"teva/internal/obs"
	"teva/internal/shard"
	"teva/internal/workloads"
)

// TestMain doubles as the shard worker binary for this package's chaos
// tests: when the supervisor re-execs the test binary with
// TEVA_EXP_TEST_WORKER set, we run the real WorkerMain (the same body
// cmd/teva-worker wraps) instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("TEVA_EXP_TEST_WORKER") != "" {
		os.Exit(shardTestWorkerMain())
	}
	os.Exit(m.Run())
}

func shardTestWorkerMain() int {
	var addr, id string
	for i, a := range os.Args {
		switch a {
		case "-supervisor":
			addr = os.Args[i+1]
		case "-id":
			id = os.Args[i+1]
		}
	}
	o := WorkerOptions{
		Supervisor:  addr,
		ID:          id,
		Diag:        os.Stderr,
		KillUnitSub: os.Getenv("TEVA_WORKER_KILL_UNIT"),
	}
	if err := WorkerMain(context.Background(), o); err != nil {
		fmt.Fprintf(os.Stderr, "test worker %s: %v\n", id, err)
		return 1
	}
	return 0
}

// shardTestEnv builds a scaled-down quick-style environment; the sample
// sizes propagate to worker processes through the plan, so the sharded
// and unsharded runs compare like for like.
func shardTestEnv(t *testing.T, cacheDir string) *Env {
	t.Helper()
	reg := obs.NewRegistry(nil)
	cfg := core.Config{
		Seed:             0xF00D,
		RandomOperands:   1500,
		WorkloadOperands: 800,
		DASample:         100000,
		Metrics:          reg,
	}
	if cacheDir != "" {
		store, err := artifact.OpenIn(cacheDir, reg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Artifacts = store
	}
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(f, Options{Scale: workloads.Tiny, Runs: 12})
}

// TestShardedFig7ChaosByteIdentical is the acceptance test for the
// sharded execution path: run fig7 with 3 worker processes while (a) the
// supervisor SIGKILLs one worker mid-campaign and (b) a poison unit
// SIGKILLs every worker that leases it until quarantine — and require
// stdout byte-identical to the unsharded in-process run, with the
// restarts and the quarantined unit named in the diag summary.
func TestShardedFig7ChaosByteIdentical(t *testing.T) {
	// Unsharded reference run (no cache, no workers).
	var ref bytes.Buffer
	if err := RunSuite(shardTestEnv(t, ""), SuiteConfig{Experiments: []string{"fig7"}}, &ref); err != nil {
		t.Fatal(err)
	}

	const poison = "random/VR20/fp-div.s"
	env := shardTestEnv(t, t.TempDir())
	var out, diag bytes.Buffer
	err := RunSuite(env, SuiteConfig{
		Experiments:    []string{"fig7"},
		Shards:         3,
		ShardWorkerBin: os.Args[0],
		ShardWorkerEnv: append(os.Environ(),
			"TEVA_EXP_TEST_WORKER=1",
			"TEVA_WORKER_KILL_UNIT="+poison,
		),
		ShardKillAfterUnits: 2,
		Diag:                &diag,
	}, &out)
	if err != nil {
		t.Fatalf("sharded run failed: %v\ndiag:\n%s", err, diag.String())
	}

	if !bytes.Equal(out.Bytes(), ref.Bytes()) {
		t.Fatalf("sharded stdout differs from unsharded run\n--- sharded\n%s\n--- unsharded\n%s\ndiag:\n%s",
			out.String(), ref.String(), diag.String())
	}
	d := diag.String()
	if !strings.Contains(d, "chaos: SIGKILL worker") {
		t.Fatalf("diag missing the supervisor-side chaos kill:\n%s", d)
	}
	if !strings.Contains(d, "restarted worker") {
		t.Fatalf("diag missing worker restarts after SIGKILL:\n%s", d)
	}
	if !strings.Contains(d, "poison unit "+poison+" quarantined") {
		t.Fatalf("diag missing the named poison quarantine:\n%s", d)
	}
	// The exit summary must carry nonzero restart and quarantine tallies.
	reg := env.F.Cfg.Metrics
	if got := reg.Counter(shard.MetricRestarts).Value(); got < 1 {
		t.Fatalf("shard.restarts = %d, want >= 1", got)
	}
	if got := reg.Counter(shard.MetricQuarantines).Value(); got != 1 {
		t.Fatalf("shard.quarantines = %d, want 1", got)
	}
	if got := reg.Counter(shard.MetricSumMismatches).Value(); got != 0 {
		t.Fatalf("shard.sum_mismatches = %d, want 0 — workers disagreed on a unit result", got)
	}
	// The prewarm must have done real work: all units except the poison
	// one completed in worker processes.
	if got := reg.Counter(shard.MetricUnitsDone).Value(); got < 20 {
		t.Fatalf("shard.units_done = %d, want >= 20 of 24 fig7 units", got)
	}
}

// TestShardedRunWithoutCacheDegradesInProcess pins the degradation
// ladder's bottom rung: -shards without a cache dir must not fail (or
// change) the run — it just runs in-process with a diag note.
func TestShardedRunWithoutCacheDegradesInProcess(t *testing.T) {
	var ref bytes.Buffer
	if err := RunSuite(shardTestEnv(t, ""), SuiteConfig{Experiments: []string{"table1"}}, &ref); err != nil {
		t.Fatal(err)
	}
	var out, diag bytes.Buffer
	err := RunSuite(shardTestEnv(t, ""), SuiteConfig{
		Experiments:    []string{"table1"},
		Shards:         3,
		ShardWorkerBin: os.Args[0],
		Diag:           &diag,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), ref.Bytes()) {
		t.Fatalf("degraded sharded run changed stdout:\n%s", out.String())
	}
	if !strings.Contains(diag.String(), "sharding needs a shared -cache-dir") {
		t.Fatalf("diag missing the degradation note:\n%s", diag.String())
	}
}

// TestPlanRoundTrip requires a worker to rebuild exactly the
// supervisor's run description. Every exported field of Options and
// core.Config except the runtime handles is set to a distinct non-zero
// value by reflection, so a field added later is covered without
// touching this test.
func TestPlanRoundTrip(t *testing.T) {
	var opts Options
	var cfg core.Config
	n := 0
	fillNonZero(t, reflect.ValueOf(&opts).Elem(), &n)
	fillNonZero(t, reflect.ValueOf(&cfg).Elem(), &n)
	store, err := artifact.OpenIn(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Artifacts = store
	env := &Env{F: &core.Framework{Cfg: cfg}, Opts: opts}

	plan, err := PlanOf(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	env2, err := NewEnvFromPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env2.Opts, opts) {
		t.Fatalf("options after round trip = %+v, want %+v", env2.Opts, opts)
	}
	got := env2.F.Cfg
	if got.Artifacts == nil || got.Artifacts.Dir() != store.Dir() {
		t.Fatalf("round trip lost the cache dir %s", store.Dir())
	}
	got.Artifacts, cfg.Artifacts = nil, nil
	if !reflect.DeepEqual(got, cfg) {
		t.Fatalf("config after round trip = %+v, want %+v", got, cfg)
	}
	// The config tag is what artifact provenance keys fold in: worker
	// cache writes land under exactly the keys the supervisor loads.
	if got, want := env2.cfgTag(), env.cfgTag(); got != want {
		t.Fatalf("cfgTag after round trip = %q, want %q", got, want)
	}
	if _, err := NewEnvFromPlan(context.Background(), []byte(`{"Options":{"Runs":1},"Extra":1}`)); err == nil {
		t.Fatal("a plan with a field this build does not know was accepted")
	}
}

// fillNonZero sets every exported field of the struct v, except the
// runtime handles Artifacts and Metrics, to a value distinct from the
// zero value and from every default; *n numbers the values.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() || sf.Name == "Artifacts" || sf.Name == "Metrics" {
			continue
		}
		setNonZero(t, sf.Name, v.Field(i), n)
	}
}

func setNonZero(t *testing.T, name string, f reflect.Value, n *int) {
	t.Helper()
	*n++
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		f.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		f.SetString(fmt.Sprintf("v%d", *n))
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			setNonZero(t, name, f.Index(i), n)
		}
	case reflect.Struct:
		fillNonZero(t, f, n)
	default:
		t.Fatalf("field %s: no test value for kind %s; extend setNonZero", name, f.Kind())
	}
}

func TestShardUnitsSelection(t *testing.T) {
	env := shardTestEnv(t, "")
	fig7, err := ShardUnits(env, []string{"fig7"})
	if err != nil {
		t.Fatal(err)
	}
	// fig7 needs the random characterizations only: levels x ops.
	if want := len(env.Levels()) * 12; len(fig7) != want {
		t.Fatalf("fig7 units = %d, want %d", len(fig7), want)
	}
	for _, u := range fig7 {
		if u.Kind != shard.UnitRandom {
			t.Fatalf("fig7 planned a %s unit: %s", u.Kind, u.ID())
		}
	}

	all, err := ShardUnits(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := env.Workloads()
	nLevels := len(env.Levels())
	want := nLevels*12 + nLevels*len(ws) + nLevels*len(ws)*len(ModelKinds())
	if len(all) != want {
		t.Fatalf("all units = %d, want %d", len(all), want)
	}
	// Cells must be staged after summaries, and IDs must be unique.
	seen := map[string]bool{}
	for _, u := range all {
		if seen[u.ID()] {
			t.Fatalf("duplicate unit %s", u.ID())
		}
		seen[u.ID()] = true
		wantStage := 0
		if u.Kind == shard.UnitCell {
			wantStage = 1
		}
		if u.Stage != wantStage {
			t.Fatalf("unit %s stage = %d, want %d", u.ID(), u.Stage, wantStage)
		}
	}

	table1, err := ShardUnits(env, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(table1) != 0 {
		t.Fatalf("table1 planned %d units, want 0 (nothing shardable)", len(table1))
	}
}
