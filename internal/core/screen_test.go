package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"teva/internal/dta"
	"teva/internal/fpu"
	"teva/internal/obs"
	"teva/internal/vscale"
)

func screenFramework(t *testing.T, screen dta.ScreenConfig) (*Framework, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(nil)
	f, err := New(Config{
		Seed:             0xF00D,
		RandomOperands:   1200,
		WorkloadOperands: 800,
		Metrics:          reg,
		Screen:           screen,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, reg
}

// TestScreenedSummariesByteIdentical is the acceptance check for the
// screening fast path: random characterization with the screen on must
// produce summaries byte-identical to the unscreened baseline for every
// op, while actually skipping dense DTA for the slack-cleared ones.
func TestScreenedSummariesByteIdentical(t *testing.T) {
	base, _ := screenFramework(t, dta.ScreenConfig{})
	scr, reg := screenFramework(t, dta.ScreenConfig{Enabled: true})

	want := randomSums(t, base, vscale.VR15)
	got := randomSums(t, scr, vscale.VR15)
	for _, op := range fpu.Ops() {
		wj, err := json.Marshal(want[op])
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got[op])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wj, gj) {
			t.Fatalf("%s: screened summary differs from baseline:\nbase %s\nscrn %s", op, wj, gj)
		}
	}

	checked := reg.Counter(dta.MetricScreenChecked).Value()
	screened := reg.Counter(dta.MetricScreenedOps).Value()
	if checked != int64(fpu.NumOps) {
		t.Fatalf("screen checked %d ops, want %d", checked, fpu.NumOps)
	}
	if screened == 0 {
		t.Fatal("no op was screened at VR15 (conversions should clear the slack)")
	}
	if screened == checked {
		t.Fatal("every op was screened at VR15 (the padded multiplier must fail the screen)")
	}
	// DTA must have run only for the unscreened ops.
	if calls := reg.Counter(dta.MetricStreamCalls).Value(); calls != checked-screened {
		t.Fatalf("dta ran %d streams, want %d (checked %d - screened %d)",
			calls, checked-screened, checked, screened)
	}
}

// TestScreenValidationMode runs the screen with the cross-check on: every
// screened op is simulated anyway and the run fails if the slack screen
// ever disagrees with simulation.
func TestScreenValidationMode(t *testing.T) {
	f, reg := screenFramework(t, dta.ScreenConfig{Enabled: true, Validate: true})
	if _, err := f.RandomSummariesCtx(t.Context(), vscale.VR20); err != nil {
		t.Fatalf("screen validation failed: %v", err)
	}
	screened := reg.Counter(dta.MetricScreenedOps).Value()
	validated := reg.Counter(dta.MetricScreenValidated).Value()
	if screened == 0 {
		t.Fatal("nothing screened at VR20")
	}
	if validated != screened {
		t.Fatalf("validated %d of %d screened ops", validated, screened)
	}
	// Validation mode simulates everything: stream calls equal checks.
	if calls, checked := reg.Counter(dta.MetricStreamCalls).Value(), reg.Counter(dta.MetricScreenChecked).Value(); calls != checked {
		t.Fatalf("validation mode ran %d streams for %d checks", calls, checked)
	}
}
