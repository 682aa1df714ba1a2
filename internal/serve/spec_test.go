package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// canon returns sp in the canonical form a submission of its JSON
// encoding decodes to.
func canon(t *testing.T, sp Spec) Spec {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSpec(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("DecodeSpec(%s): %v", b, err)
	}
	return out
}

func TestSpecNormalizeCanonicalizes(t *testing.T) {
	a := canon(t, Spec{Experiments: []string{"fig9", " fig7", "fig9", ""}, Seed: 0})
	b := canon(t, Spec{Experiments: []string{"fig7", "fig9"}, Seed: 0xF00D, Timing: "wide"})
	if a.Key() != b.Key() {
		t.Fatalf("equivalent specs disagree:\n  %s\n  %s", a.Key(), b.Key())
	}
	if a.JobID() != b.JobID() {
		t.Fatalf("equivalent specs got different job IDs %s vs %s", a.JobID(), b.JobID())
	}
	if got := a.Experiments; len(got) != 2 || got[0] != "fig7" || got[1] != "fig9" {
		t.Fatalf("normalize kept %v", got)
	}
}

func TestSpecAllCollapses(t *testing.T) {
	a := canon(t, Spec{})
	b := canon(t, Spec{Experiments: []string{"all", "fig9"}})
	if a.Key() != b.Key() {
		t.Fatalf("empty selection and explicit all disagree:\n  %s\n  %s", a.Key(), b.Key())
	}
}

func TestSpecWorkersExcludedFromKey(t *testing.T) {
	a := canon(t, Spec{Workers: 1})
	b := canon(t, Spec{Workers: 16})
	if a.Key() != b.Key() {
		t.Fatalf("worker count leaked into the dedupe key (results are worker-invariant):\n  %s\n  %s",
			a.Key(), b.Key())
	}
	c := canon(t, Spec{MaxDuration: "1h"})
	if a.Key() != c.Key() {
		t.Fatalf("max_duration leaked into the dedupe key:\n  %s\n  %s", a.Key(), c.Key())
	}
}

func TestSpecKeySeparatesResultShapingFields(t *testing.T) {
	base := canon(t, Spec{})
	variants := []Spec{
		{Quick: true},
		{Seed: 99},
		{Runs: 7},
		{Scale: "tiny"},
		{Timing: "exact"},
		{Corners: "nominal,0.85"},
		{STAScreen: true},
		{ScreenGuardband: 3},
		{ScreenValidate: true, STAScreen: true},
		{TimeoutFactor: 4},
		{Experiments: []string{"fig7"}},
	}
	seen := map[string]bool{base.Key(): true}
	for _, v := range variants {
		v = canon(t, v)
		if seen[v.Key()] {
			t.Fatalf("spec variant %+v aliases another spec's key %s", v, v.Key())
		}
		seen[v.Key()] = true
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed json", `{"experiments": [`, "bad spec"},
		{"unknown field", `{"experiment": "fig7"}`, "unknown field"},
		{"trailing data", `{"quick": true} {"quick": false}`, "trailing data"},
		{"wrong matrix type", `{"experiments": "fig7"}`, "bad spec"},
		{"unknown experiment", `{"experiments": ["fig7", "fig77"]}`, "unknown experiment"},
		{"unknown engine", `{"timing": "turbo"}`, "unknown timing engine"},
		{"unknown scale", `{"scale": "huge"}`, "unknown scale"},
		{"bad corners", `{"corners": "nominal,not-a-voltage"}`, "corner"},
		{"negative runs", `{"runs": -1}`, "runs"},
		{"huge runs", `{"runs": 100000000}`, "runs"},
		{"negative workers", `{"workers": -2}`, "workers"},
		{"negative timeout factor", `{"timeout_factor": -1}`, "TimeoutFactor"},
		{"infinite timeout factor", `{"timeout_factor": 1e999}`, "bad spec"},
		{"negative guardband", `{"screen_guardband": -0.5}`, "guardband"},
		{"bad max duration", `{"max_duration": "soon"}`, "max_duration"},
		{"negative max duration", `{"max_duration": "-5s"}`, "max_duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpec(strings.NewReader(tc.body))
			if err == nil {
				t.Fatalf("DecodeSpec(%s) accepted", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("DecodeSpec(%s) error %q does not mention %q", tc.body, err, tc.wantErr)
			}
		})
	}
}

func TestDecodeSpecAccepts(t *testing.T) {
	sp, err := DecodeSpec(strings.NewReader(
		`{"experiments":["fig7"],"quick":true,"timing":"fast","corners":"nominal,VR20","runs":12,"max_duration":"90s"}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Seed != 0xF00D {
		t.Fatalf("seed default not applied: %#x", sp.Seed)
	}
	opts, cfg, err := sp.Effective()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Runs != 12 {
		t.Fatalf("runs override lost: %d", opts.Runs)
	}
	if cfg.RandomOperands != 4000 {
		t.Fatalf("quick preset not applied: RandomOperands=%d", cfg.RandomOperands)
	}
	d, err := sp.Budget()
	if err != nil || d.Seconds() != 90 {
		t.Fatalf("max duration: %v %v", d, err)
	}
}

// TestSpecIDIsResolvedRun pins job IDs as content addresses of the run a
// spec resolves to, not of its spelling: an override that restates the
// preset's value is the same job, and so is a -full that -quick wins
// over.
func TestSpecIDIsResolvedRun(t *testing.T) {
	quick := canon(t, Spec{Quick: true})
	for _, same := range []Spec{
		{Quick: true, Scale: "tiny", Runs: 24},
		{Quick: true, Full: true},
		{Quick: true, Experiments: []string{"all"}, Timing: "wide", Seed: 0xF00D},
	} {
		if got := canon(t, same).JobID(); got != quick.JobID() {
			t.Errorf("%+v: job ID %s, want %s (same run as {quick:true})", same, got, quick.JobID())
		}
	}
	if canon(t, Spec{Quick: true, Runs: 25}).JobID() == quick.JobID() {
		t.Error("a different runs override shares the quick job ID")
	}
}
