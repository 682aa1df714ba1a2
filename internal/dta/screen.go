package dta

import (
	"teva/internal/fpu"
)

// Slack-driven DTA screening.
//
// Dynamic timing analysis at delay scale s flags an instruction faulty
// only when some stage's dynamic arrival exceeds the capture deadline
// CLK - Setup*s. Every dynamic arrival is bounded by the static worst
// case: arrival + Setup*s <= s * WorstDelay(nominal STA) — the invariant
// the sta package's differential tests pin against both scalar engines.
// So when the scaled static worst delay of every stage of an op's
// pipeline still fits the clock with margin to spare,
//
//	CLK - s*WorstDelay(stage) >= guardband  for all stages,
//
// the op cannot produce a single timing error at that corner, and its
// dense DTA (thousands of gate-level walks) can be skipped outright: the
// summary of an error-free stream is fully determined by the op and the
// sample count. Near-critical ops (the padded mantissa and round stages)
// fail the screen and proceed to dense DTA unchanged.

// Metric names published by the screening layer: ops considered,
// ops skipped by the screen, and ops cross-checked in validation mode.
const (
	MetricScreenChecked   = "dta.screen_checked"
	MetricScreenedOps     = "dta.screened_ops"
	MetricScreenValidated = "dta.screen_validated"
)

// ScreenConfig configures slack-driven screening of DTA characterization.
type ScreenConfig struct {
	// Enabled turns the screen on; when false the other fields are inert.
	Enabled bool
	// Guardband is the minimum positive slack, in ps, an op's worst stage
	// must clear at the analyzed corner before the op is screened. 0 is
	// sound by the STA bound; a positive guardband adds engineering margin
	// on top.
	Guardband float64
	// Validate keeps the dense DTA for screened ops and cross-checks that
	// the simulation agrees (zero faulty instructions): the screen's
	// soundness check, used by CI to prove screened output byte-identical.
	Validate bool
}

// OpSlack returns the op's worst stage slack at the FPU's calibrated
// clock with every delay inflated by scale: min over the op's pipeline
// stages of CLK - scale*WorstDelay(stage). Negative once some stage's
// scaled static critical path no longer fits the clock. The underlying
// nominal STA runs once per (FPU, op); subsequent queries at any scale
// are a few multiplies.
func OpSlack(f *fpu.FPU, op fpu.Op, scale float64) float64 {
	worsts := nominalTiming(f, op).worsts
	slack := f.CLK - scale*worsts[0]
	for _, w := range worsts[1:] {
		if s := f.CLK - scale*w; s < slack {
			slack = s
		}
	}
	return slack
}

// Screens reports whether the op clears the screen at the scale: enabled,
// and every stage's scaled static worst delay fits the clock with at
// least the guardband to spare.
func (c ScreenConfig) Screens(f *fpu.FPU, op fpu.Op, scale float64) bool {
	return c.Enabled && OpSlack(f, op, scale) >= c.Guardband
}

// ScreenedSummary synthesizes the summary of an error-free n-instruction
// stream: byte-identical (including JSON encoding) to Summarize over n
// records with zero fault masks, which is what dense DTA of a screened op
// is guaranteed to produce.
func ScreenedSummary(op fpu.Op, n int) *Summary {
	rw := op.ResultWidth()
	return &Summary{
		Op:        op,
		Total:     n,
		BitErrors: make([]int, rw),
		FlipHist:  make([]int, rw+1),
	}
}
