package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"teva/internal/artifact"
	"teva/internal/core"
)

// storedExperiment is one of the experiments whose analysis reads only
// the design and is stored under an input key: how to run it and how to
// render it.
type storedExperiment struct {
	name, kind string
	run        func(e *Env) (any, error)
	render     func(w io.Writer, csvDir string, r any) error
}

func storedExperiments() []storedExperiment {
	return []storedExperiment{
		{"fig4", "fig4-census",
			func(e *Env) (any, error) { r, err := Fig4(e); return r, err },
			func(w io.Writer, dir string, r any) error {
				RenderFig4(w, r.(*Fig4Result))
				return CSVFig4(dir, r.(*Fig4Result))
			}},
		{"adders", "adders",
			func(e *Env) (any, error) { r, err := AdderAblation(e); return r, err },
			func(w io.Writer, dir string, r any) error {
				RenderAdders(w, r.([]AdderRow))
				return CSVAdders(dir, r.([]AdderRow))
			}},
		{"power", "power",
			func(e *Env) (any, error) { r, err := Power(e); return r, err },
			func(w io.Writer, dir string, r any) error {
				RenderPower(w, r.(*PowerResult))
				return CSVPower(dir, r.(*PowerResult))
			}},
	}
}

// storedRun is one computation of an experiment: its result, its
// rendered section and its CSV bytes.
type storedRun struct {
	res    any
	report []byte
	csv    map[string][]byte
}

// runStored runs x on a quick Env over d and store, with mod applied to
// the options and configuration, and renders the result.
func runStored(t *testing.T, d *core.Design, store *artifact.Store, x storedExperiment, mod func(*Options, *core.Config)) storedRun {
	t.Helper()
	opts, cfg := effective(t, Spec{Quick: true, Seed: d.Seed})
	if mod != nil {
		mod(&opts, &cfg)
	}
	cfg.Artifacts = store
	f, err := core.NewOn(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.run(NewEnv(f, opts))
	if err != nil {
		t.Fatalf("%s: %v", x.name, err)
	}
	dir := t.TempDir()
	var report bytes.Buffer
	if err := x.render(&report, dir, res); err != nil {
		t.Fatal(err)
	}
	csv := map[string][]byte{}
	files, _ := os.ReadDir(dir)
	for _, fi := range files {
		b, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			t.Fatal(err)
		}
		csv[fi.Name()] = b
	}
	return storedRun{res: res, report: report.Bytes(), csv: csv}
}

func sameStored(t *testing.T, label string, got, want storedRun) {
	t.Helper()
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%s: result differs from the computed one", label)
	}
	if p, ok := got.res.(*PowerResult); ok {
		g, w := p.Profile, want.res.(*PowerResult).Profile
		for i := range g.PerOp {
			if math.Float64bits(g.PerOp[i]) != math.Float64bits(w.PerOp[i]) {
				t.Fatalf("%s: op %d energy %v, want %v bit for bit", label, i, g.PerOp[i], w.PerOp[i])
			}
		}
		if math.Float64bits(g.IntOp) != math.Float64bits(w.IntOp) {
			t.Fatalf("%s: int-op energy %v, want %v bit for bit", label, g.IntOp, w.IntOp)
		}
	}
	if !bytes.Equal(got.report, want.report) {
		t.Fatalf("%s: rendered section differs:\n%s\nvs computed\n%s", label, got.report, want.report)
	}
	if len(want.csv) == 0 || !reflect.DeepEqual(got.csv, want.csv) {
		t.Fatalf("%s: CSV bytes differ from the computed ones", label)
	}
}

func openStore(t *testing.T, dir string) *artifact.Store {
	t.Helper()
	s, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantStats(t *testing.T, label string, got artifact.Stats, hits, misses, corrupt, writes int64) {
	t.Helper()
	if got.Hits != hits || got.Misses != misses || got.Corrupt != corrupt || got.Writes != writes {
		t.Fatalf("%s: store %v, want %d hits, %d misses (%d corrupt), %d written", label, got, hits, misses, corrupt, writes)
	}
}

// TestNetlistExperimentsStoredEqualComputed: Figure 4, the adder
// ablation and the power study give the same result, section and CSV
// bytes computed without a store, computed into an empty store, reloaded
// from it, and recomputed over a corrupted entry; their keys change with
// every input they read and with nothing else.
func TestNetlistExperimentsStoredEqualComputed(t *testing.T) {
	d, err := core.NewDesign(core.DefaultConfig().Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range storedExperiments() {
		t.Run(x.name, func(t *testing.T) {
			computed := runStored(t, d, nil, x, nil)

			dir := t.TempDir()
			cold := openStore(t, dir)
			sameStored(t, "miss", runStored(t, d, cold, x, nil), computed)
			wantStats(t, "miss", cold.Stats(), 0, 1, 0, 1)

			warm := openStore(t, dir)
			sameStored(t, "hit", runStored(t, d, warm, x, nil), computed)
			wantStats(t, "hit", warm.Stats(), 1, 0, 0, 0)

			entries, _ := filepath.Glob(filepath.Join(dir, x.kind+"-*.json"))
			if len(entries) != 1 {
				t.Fatalf("store holds %d %s entries, want 1", len(entries), x.kind)
			}
			if err := os.WriteFile(entries[0], []byte("{garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			corrupt := openStore(t, dir)
			sameStored(t, "corrupt", runStored(t, d, corrupt, x, nil), computed)
			wantStats(t, "corrupt", corrupt.Stats(), 0, 1, 1, 1)
			sameStored(t, "rewritten", runStored(t, d, corrupt, x, nil), computed)
			wantStats(t, "rewritten", corrupt.Stats(), 1, 1, 1, 1)

			// Inputs the experiment does not read share its entry.
			same := openStore(t, dir)
			sameStored(t, "other runs", runStored(t, d, same, x, func(o *Options, c *core.Config) {
				o.Runs, c.WorkloadOperands = 3, 500
			}), computed)
			wantStats(t, "other runs", same.Stats(), 1, 0, 0, 0)
		})
	}

	// The adder key holds the transition count after the 4,000 cap.
	xs := storedExperiments()
	fig4, adders, pow := xs[0], xs[1], xs[2]
	dir := t.TempDir()
	quick := runStored(t, d, openStore(t, dir), adders, nil) // 4,000 operands
	s := openStore(t, dir)
	runStored(t, d, s, adders, func(_ *Options, c *core.Config) { c.RandomOperands = 8000 })
	wantStats(t, "8000 operands, capped", s.Stats(), 1, 0, 0, 0)
	fewer := runStored(t, d, s, adders, func(_ *Options, c *core.Config) { c.RandomOperands = 1000 })
	wantStats(t, "1000 operands", s.Stats(), 1, 1, 0, 1)
	if reflect.DeepEqual(fewer.res, quick.res) {
		t.Fatal("1000 transitions reloaded the 4000-transition rows")
	}

	// Figure 4's key holds the path count.
	runStored(t, d, s, fig4, nil) // 300 paths
	more := runStored(t, d, s, fig4, func(o *Options, _ *core.Config) { o.Fig4Paths = 400 })
	wantStats(t, "400 paths", s.Stats(), 1, 3, 0, 3)
	if n := more.res.(*Fig4Result).NumPaths; n != 400 {
		t.Fatalf("Fig4Paths 400 gave %d paths", n)
	}

	// The power key holds the per-op sample count, RandomOperands/20.
	quickPow := runStored(t, d, s, pow, nil) // 200 samples
	morePow := runStored(t, d, s, pow, func(_ *Options, c *core.Config) { c.RandomOperands = 8000 })
	wantStats(t, "400 samples", s.Stats(), 1, 5, 0, 5)
	if reflect.DeepEqual(morePow.res, quickPow.res) {
		t.Fatal("400 samples reloaded the 200-sample profile")
	}

	// Every key holds the seed: another design misses all three.
	d7, err := core.NewDesign(7)
	if err != nil {
		t.Fatal(err)
	}
	runStored(t, d7, s, adders, nil)
	runStored(t, d7, s, fig4, nil)
	runStored(t, d7, s, pow, nil)
	wantStats(t, "seed 7", s.Stats(), 1, 8, 0, 8)

	// And the register parameters.
	lib := d.FPU.Lib
	for _, pair := range [][2]artifact.Key{
		{artifact.AdderKey(1, 4000, lib.ClockToQ, lib.Setup), artifact.AdderKey(1, 4000, lib.ClockToQ+1, lib.Setup)},
		{artifact.AdderKey(1, 4000, lib.ClockToQ, lib.Setup), artifact.AdderKey(1, 4000, lib.ClockToQ, lib.Setup+1)},
		{artifact.Fig4Key(1, 300, lib.ClockToQ, lib.Setup), artifact.Fig4Key(1, 300, lib.ClockToQ+1, lib.Setup)},
		{artifact.Fig4Key(1, 300, lib.ClockToQ, lib.Setup), artifact.Fig4Key(1, 300, lib.ClockToQ, lib.Setup+1)},
		{artifact.PowerKey(1, 200, lib.ClockToQ, lib.Setup), artifact.PowerKey(1, 200, lib.ClockToQ+1, lib.Setup)},
		{artifact.PowerKey(1, 200, lib.ClockToQ, lib.Setup), artifact.PowerKey(1, 200, lib.ClockToQ, lib.Setup+1)},
		{artifact.AdderKey(1, 300, lib.ClockToQ, lib.Setup), artifact.Fig4Key(1, 300, lib.ClockToQ, lib.Setup)},
		{artifact.AdderKey(1, 300, lib.ClockToQ, lib.Setup), artifact.PowerKey(1, 300, lib.ClockToQ, lib.Setup)},
		{artifact.Fig4Key(1, 300, lib.ClockToQ, lib.Setup), artifact.PowerKey(1, 300, lib.ClockToQ, lib.Setup)},
	} {
		if pair[0] == pair[1] {
			t.Fatalf("keys alias: %+v", pair[0])
		}
	}
}

// TestFig4CensusIgnoresOlderEntries: an older store holds Figure 4 whole,
// its paths included and without a path count, under kind "fig4". The
// census is stored under its own kind, so such an entry is a miss, never
// a census with no paths.
func TestFig4CensusIgnoresOlderEntries(t *testing.T) {
	d, err := core.NewDesign(core.DefaultConfig().Seed)
	if err != nil {
		t.Fatal(err)
	}
	fig4 := storedExperiments()[0]
	computed := runStored(t, d, nil, fig4, nil)

	// The older layout: every census field but the count, plus the paths.
	b, err := json.Marshal(computed.res)
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(b, &old); err != nil {
		t.Fatal(err)
	}
	delete(old, "NumPaths")
	old["Paths"] = []any{}
	opts, _ := effective(t, Spec{Quick: true, Seed: d.Seed})
	lib := d.FPU.Lib
	k := artifact.Fig4Key(d.Seed, opts.Fig4Paths, lib.ClockToQ, lib.Setup)
	s := openStore(t, t.TempDir())
	if err := s.Save(artifact.Key{Kind: "fig4", ID: k.ID}, old); err != nil {
		t.Fatal(err)
	}
	sameStored(t, "older store", runStored(t, d, s, fig4, nil), computed)
	wantStats(t, "older store", s.Stats(), 0, 1, 0, 2)
}
