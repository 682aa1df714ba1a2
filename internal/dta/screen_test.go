package dta

import (
	"bytes"
	"encoding/json"
	"testing"

	"teva/internal/fpu"
	"teva/internal/vscale"
)

func TestOpSlackMatchesStageReports(t *testing.T) {
	f := testFPU
	for _, op := range []fpu.Op{fpu.DMul, fpu.DAdd, fpu.SI2F, fpu.DDiv} {
		for _, scale := range []float64{1.0, testModel.ScaleFor(vscale.VR15)} {
			want := f.CLK
			for _, r := range f.Pipeline(op).STA() {
				if s := f.CLK - scale*r.WorstDelay; s < want {
					want = s
				}
			}
			if got := OpSlack(f, op, scale); got != want {
				t.Fatalf("%s at scale %v: OpSlack %v, direct %v", op, scale, got, want)
			}
		}
	}
	// The padded multiplier mantissa stage sits at 1.0x CLK, so its
	// nominal slack is ~0 and any voltage reduction drives it negative;
	// the unpadded single-precision conversion keeps comfortable slack
	// even at VR20.
	vr20 := testModel.ScaleFor(vscale.VR20)
	if s := OpSlack(f, fpu.DMul, 1.0); s < -1 || s > 10 {
		t.Fatalf("DMul nominal slack %v, want ~0", s)
	}
	if s := OpSlack(f, fpu.DMul, vr20); s >= 0 {
		t.Fatalf("DMul VR20 slack %v, want negative", s)
	}
	if s := OpSlack(f, fpu.SI2F, vr20); s <= 0 {
		t.Fatalf("SI2F VR20 slack %v, want positive", s)
	}
}

func TestScreensGating(t *testing.T) {
	f := testFPU
	vr15 := testModel.ScaleFor(vscale.VR15)
	off := ScreenConfig{}
	if off.Screens(f, fpu.SI2F, vr15) {
		t.Fatal("disabled screen screened an op")
	}
	on := ScreenConfig{Enabled: true}
	if !on.Screens(f, fpu.SI2F, vr15) {
		t.Fatal("slack-cleared op not screened")
	}
	if on.Screens(f, fpu.DMul, vr15) {
		t.Fatal("near-critical op screened")
	}
	// A guardband above the op's actual slack must unscreen it.
	tight := ScreenConfig{Enabled: true, Guardband: OpSlack(f, fpu.SI2F, vr15) + 1}
	if tight.Screens(f, fpu.SI2F, vr15) {
		t.Fatal("guardband not enforced")
	}
}

// TestScreenedSummaryMatchesSimulation is the soundness anchor at the
// summary level: for a slack-cleared op, the synthesized summary must be
// byte-identical (JSON included, since that is what the artifact store
// and the CSV exports consume) to the one dense DTA produces.
func TestScreenedSummaryMatchesSimulation(t *testing.T) {
	f := testFPU
	vr20 := testModel.ScaleFor(vscale.VR20)
	for _, op := range []fpu.Op{fpu.SI2F, fpu.SF2I} {
		if !(ScreenConfig{Enabled: true}).Screens(f, op, vr20) {
			t.Fatalf("%s unexpectedly fails the screen at VR20", op)
		}
		const n = 200
		recs := stream(t, f, op, vr20, EngineWide, randPairs(op, n, 99), 4)
		simulated := Summarize(op, recs)
		synthetic := ScreenedSummary(op, n)
		sj, err := json.Marshal(simulated)
		if err != nil {
			t.Fatal(err)
		}
		yj, err := json.Marshal(synthetic)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, yj) {
			t.Fatalf("%s: screened summary differs from simulation:\nsim  %s\nsynt %s", op, sj, yj)
		}
	}
}
