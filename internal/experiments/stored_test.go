package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"teva/internal/artifact"
	"teva/internal/core"
)

// netlistExperiment is one of the experiments that read only the design
// and are stored whole: how to run it and how to render it.
type netlistExperiment struct {
	name, kind string
	run        func(e *Env) (any, error)
	render     func(w io.Writer, csvDir string, r any) error
}

func netlistExperiments() []netlistExperiment {
	return []netlistExperiment{
		{"fig4", "fig4",
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
func runStored(t *testing.T, d *core.Design, store *artifact.Store, x netlistExperiment, mod func(*Options, *core.Config)) storedRun {
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

// TestNetlistExperimentsStoredEqualComputed: Figure 4 and the adder
// ablation give the same result, section and CSV bytes computed without
// a store, computed into an empty store, reloaded from it, and recomputed
// over a corrupted entry; their keys change with every input they read
// and with nothing else.
func TestNetlistExperimentsStoredEqualComputed(t *testing.T) {
	d, err := core.NewDesign(core.DefaultConfig().Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range netlistExperiments() {
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
	adders, fig4 := netlistExperiments()[1], netlistExperiments()[0]
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
	if n := len(more.res.(*Fig4Result).Paths); n != 400 {
		t.Fatalf("Fig4Paths 400 gave %d paths", n)
	}

	// Both keys hold the seed: another design misses both.
	d7, err := core.NewDesign(7)
	if err != nil {
		t.Fatal(err)
	}
	runStored(t, d7, s, adders, nil)
	runStored(t, d7, s, fig4, nil)
	wantStats(t, "seed 7", s.Stats(), 1, 5, 0, 5)

	// And the register parameters.
	lib := d.FPU.Lib
	for _, pair := range [][2]artifact.Key{
		{artifact.AdderKey(1, 4000, lib.ClockToQ, lib.Setup), artifact.AdderKey(1, 4000, lib.ClockToQ+1, lib.Setup)},
		{artifact.AdderKey(1, 4000, lib.ClockToQ, lib.Setup), artifact.AdderKey(1, 4000, lib.ClockToQ, lib.Setup+1)},
		{artifact.Fig4Key(1, 300, lib.ClockToQ, lib.Setup), artifact.Fig4Key(1, 300, lib.ClockToQ+1, lib.Setup)},
		{artifact.Fig4Key(1, 300, lib.ClockToQ, lib.Setup), artifact.Fig4Key(1, 300, lib.ClockToQ, lib.Setup+1)},
		{artifact.AdderKey(1, 300, lib.ClockToQ, lib.Setup), artifact.Fig4Key(1, 300, lib.ClockToQ, lib.Setup)},
	} {
		if pair[0] == pair[1] {
			t.Fatalf("keys alias: %+v", pair[0])
		}
	}
}
