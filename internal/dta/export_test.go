package dta

import (
	"teva/internal/fpu"
	"teva/internal/timingsim"
)

// History exposes an analyzer's faulty-domain pipeline history (the state
// each AnalyzeStream shard starts from and ends with) to the external
// tests.
func (a *Analyzer) History() []uint64 { return a.history(nil) }

// SkipsFaultyWalk reports whether the analyzer skips the faulty walk
// because no endpoint can be late at its scale.
func (a *Analyzer) SkipsFaultyWalk() bool { return a.noLate }

// PruneMargin is the tracked-gate rule's relative clock margin.
const PruneMargin = pruneMargin

// NominalPaths returns the op's cached nominal path delays, one slice of
// per-gate delays per pipeline stage.
func NominalPaths(f *fpu.FPU, op fpu.Op) [][]float32 { return nominalTiming(f, op).paths }

// newFastReference returns a scalar analyzer that times every expanded
// cycle on the levelized timingsim.FastSim, the wide engine's bit-exact
// differential reference, computing Full records.
func newFastReference(f *fpu.FPU, op fpu.Op, scale float64) *Analyzer {
	a := New(f, op, scale, EngineExact, Full)
	for ci, s := range a.stages {
		a.timing[ci] = timingsim.NewFast(s.N.Compiled(), scale)
	}
	return a
}
