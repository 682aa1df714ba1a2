// Package errmodel implements the three timing-error injection models the
// paper compares (Table I):
//
//   - DA-model: data-agnostic — a fixed, voltage-dependent error ratio;
//     each error flips one uniformly chosen bit of a uniformly chosen
//     instruction's destination register.
//   - IA-model: instruction-aware — per-instruction-type error ratios and
//     per-bit error probabilities extracted by DTA over random operands.
//   - WA-model: instruction- and workload-aware (the paper's proposal) —
//     per-benchmark, per-instruction-type error ratios and empirical
//     bitmask pools extracted by DTA over operands sampled from the
//     workload itself.
//
// Each model turns into a cpu.Injector for microarchitectural injection
// campaigns and serializes to JSON for the tool flow.
package errmodel

import (
	"encoding/json"
	"fmt"
	"strings"

	"teva/internal/cpu"
	"teva/internal/dta"
	"teva/internal/fpu"
	"teva/internal/prng"
)

// Kind discriminates the model families.
type Kind string

// The model families of Table I.
const (
	DA Kind = "DA"
	IA Kind = "IA"
	WA Kind = "WA"
)

// ParseKind maps a model family name to its Kind, ignoring case ("wa" is
// WA).
func ParseKind(name string) (Kind, error) {
	switch k := Kind(strings.ToUpper(name)); k {
	case DA, IA, WA:
		return k, nil
	}
	return "", fmt.Errorf("errmodel: unknown model %q (da, ia, wa)", name)
}

// Model is a timing-error injection model bound to one voltage level.
type Model interface {
	// Kind returns the model family.
	Kind() Kind
	// Level returns the voltage-reduction level name ("VR15").
	Level() string
	// Describe returns a one-line summary for reports.
	Describe() string
	// NewInjector returns a fresh injector drawing randomness from src.
	NewInjector(src *prng.Source) cpu.Injector
	// ExpectedER returns the model's expected injected-error ratio
	// (errors per dynamic instruction) for a workload whose per-op
	// dynamic instruction shares are given; opShare[op] is the fraction
	// of all instructions that are FPU instructions of that type.
	ExpectedER(opShare [fpu.NumOps]float64) float64
}

// ---------------------------------------------------------------------------
// DA-model

// DAModel injects uniformly random single-bit flips at a fixed ratio.
type DAModel struct {
	ModelLevel string `json:"level"`
	// ER is the fixed per-instruction error ratio (Eq. 2 over the mixed
	// Monte-Carlo DTA sample).
	ER float64 `json:"er"`
}

// BuildDA estimates the fixed error ratio from DTA summaries of a mixed
// instruction sample: faultyInstr counts DTA-detected errors, totalInstr
// is the full sample size including instructions that cannot fail.
func BuildDA(level string, faultyInstr, totalInstr int64) *DAModel {
	er := 0.0
	if totalInstr > 0 {
		er = float64(faultyInstr) / float64(totalInstr)
	}
	return &DAModel{ModelLevel: level, ER: er}
}

// Kind implements Model.
func (m *DAModel) Kind() Kind { return DA }

// Level implements Model.
func (m *DAModel) Level() string { return m.ModelLevel }

// Describe implements Model.
func (m *DAModel) Describe() string {
	return fmt.Sprintf("DA-model @%s: fixed ER %.3g, uniform single-bit flips", m.ModelLevel, m.ER)
}

// ExpectedER implements Model: the DA ratio is workload-independent.
func (m *DAModel) ExpectedER(_ [fpu.NumOps]float64) float64 { return m.ER }

type daInjector struct {
	m   *DAModel
	src *prng.Source
}

// NewInjector implements Model.
func (m *DAModel) NewInjector(src *prng.Source) cpu.Injector {
	return &daInjector{m: m, src: src}
}

// OnWriteback flips a single uniformly chosen destination bit with the
// fixed probability, for any instruction that writes a register.
func (d *daInjector) OnWriteback(ev cpu.Event) uint64 {
	if d.src.Float64() >= d.m.ER {
		return 0
	}
	return 1 << uint(d.src.Intn(ev.Width))
}

// ---------------------------------------------------------------------------
// IA-model

// IAOpStats is the instruction-aware characterization of one op.
type IAOpStats struct {
	// ER is the probability that an instance of the op suffers an error.
	ER float64 `json:"er"`
	// BitProb[i] is the conditional probability that output bit i is
	// corrupted given that the instruction is faulty.
	BitProb []float64 `json:"bit_prob,omitempty"`
}

// IAModel injects per-instruction-type statistical errors.
type IAModel struct {
	ModelLevel string                `json:"level"`
	PerOp      [fpu.NumOps]IAOpStats `json:"per_op"`
}

// BuildIA derives the model from per-op DTA summaries over random
// operands (one summary per op; missing entries mean no errors).
func BuildIA(level string, summaries map[fpu.Op]*dta.Summary) *IAModel {
	m := &IAModel{ModelLevel: level}
	for op, s := range summaries {
		st := IAOpStats{ER: s.ErrorRatio()}
		if s.Faulty > 0 {
			st.BitProb = make([]float64, len(s.BitErrors))
			for i, c := range s.BitErrors {
				st.BitProb[i] = float64(c) / float64(s.Faulty)
			}
		}
		m.PerOp[op] = st
	}
	return m
}

// Kind implements Model.
func (m *IAModel) Kind() Kind { return IA }

// Level implements Model.
func (m *IAModel) Level() string { return m.ModelLevel }

// Describe implements Model.
func (m *IAModel) Describe() string {
	return fmt.Sprintf("IA-model @%s: per-instruction statistical injection", m.ModelLevel)
}

// ExpectedER implements Model.
func (m *IAModel) ExpectedER(opShare [fpu.NumOps]float64) float64 {
	var er float64
	for op := range m.PerOp {
		er += opShare[op] * m.PerOp[op].ER
	}
	return er
}

type iaInjector struct {
	m   *IAModel
	src *prng.Source
}

// NewInjector implements Model.
func (m *IAModel) NewInjector(src *prng.Source) cpu.Injector {
	return &iaInjector{m: m, src: src}
}

// OnWriteback corrupts FPU results per the op's statistics: with
// probability ER, sample each output bit independently from its
// conditional error probability (retrying an all-zero draw so a selected
// instruction is actually corrupted).
func (d *iaInjector) OnWriteback(ev cpu.Event) uint64 {
	if !ev.FPUDatapath {
		return 0
	}
	st := &d.m.PerOp[ev.FPOp]
	if st.ER == 0 || len(st.BitProb) == 0 || d.src.Float64() >= st.ER {
		return 0
	}
	for attempt := 0; attempt < 8; attempt++ {
		var mask uint64
		for i, p := range st.BitProb {
			if p > 0 && d.src.Float64() < p {
				mask |= 1 << uint(i)
			}
		}
		if mask != 0 {
			return mask
		}
	}
	// Degenerate statistics: corrupt the most error-prone bit.
	best, bestP := 0, 0.0
	for i, p := range st.BitProb {
		if p > bestP {
			best, bestP = i, p
		}
	}
	return 1 << uint(best)
}

// ---------------------------------------------------------------------------
// WA-model

// WAOpStats is the workload-aware characterization of one op.
type WAOpStats struct {
	// ER is the probability that an instance of the op suffers an error
	// when executing this workload at this voltage.
	ER float64 `json:"er"`
	// Masks is the empirical pool of observed error bitmasks.
	Masks []uint64 `json:"masks,omitempty"`
}

// WAModel injects errors from per-workload empirical DTA distributions —
// the paper's proposed model.
type WAModel struct {
	ModelLevel string                `json:"level"`
	Workload   string                `json:"workload"`
	PerOp      [fpu.NumOps]WAOpStats `json:"per_op"`
}

// BuildWA derives the model from per-op DTA summaries over operands
// sampled from the named workload.
func BuildWA(level, workload string, summaries map[fpu.Op]*dta.Summary) *WAModel {
	m := &WAModel{ModelLevel: level, Workload: workload}
	for op, s := range summaries {
		m.PerOp[op] = WAOpStats{ER: s.ErrorRatio(), Masks: s.Masks}
	}
	return m
}

// Kind implements Model.
func (m *WAModel) Kind() Kind { return WA }

// Level implements Model.
func (m *WAModel) Level() string { return m.ModelLevel }

// Describe implements Model.
func (m *WAModel) Describe() string {
	return fmt.Sprintf("WA-model @%s/%s: workload-aware bitmask injection", m.ModelLevel, m.Workload)
}

// ExpectedER implements Model.
func (m *WAModel) ExpectedER(opShare [fpu.NumOps]float64) float64 {
	var er float64
	for op := range m.PerOp {
		er += opShare[op] * m.PerOp[op].ER
	}
	return er
}

type waInjector struct {
	m   *WAModel
	src *prng.Source
}

// NewInjector implements Model.
func (m *WAModel) NewInjector(src *prng.Source) cpu.Injector {
	return &waInjector{m: m, src: src}
}

// OnWriteback corrupts FPU results with workload-specific probability,
// applying a bitmask drawn from the observed pool.
func (d *waInjector) OnWriteback(ev cpu.Event) uint64 {
	if !ev.FPUDatapath {
		return 0
	}
	st := &d.m.PerOp[ev.FPOp]
	if st.ER == 0 || len(st.Masks) == 0 || d.src.Float64() >= st.ER {
		return 0
	}
	return st.Masks[d.src.Intn(len(st.Masks))]
}

// ---------------------------------------------------------------------------
// Serialization

// envelope wraps a model with its kind for JSON round trips.
type envelope struct {
	Kind Kind            `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// Marshal serializes any model.
func Marshal(m Model) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(envelope{Kind: m.Kind(), Body: body}, "", "  ")
}

// Unmarshal restores a model serialized with Marshal.
func Unmarshal(data []byte) (Model, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("errmodel: %w", err)
	}
	var m Model
	switch env.Kind {
	case DA:
		m = &DAModel{}
	case IA:
		m = &IAModel{}
	case WA:
		m = &WAModel{}
	default:
		return nil, fmt.Errorf("errmodel: unknown kind %q", env.Kind)
	}
	if err := json.Unmarshal(env.Body, m); err != nil {
		return nil, fmt.Errorf("errmodel: %w", err)
	}
	return m, nil
}
