// Package vscale models how supply-voltage reduction inflates gate delay
// and reduces power. It stands in for the SPICE/SiliconSmart library
// re-characterization of the paper's Section IV-B.1: what dynamic timing
// analysis consumes is a per-corner delay scale factor, and what the
// energy analysis consumes is the dynamic-power ratio between corners.
//
// Delay follows the alpha-power law (Sakurai-Newton):
//
//	t_d(V) ∝ V / (V - Vth)^alpha
//
// and dynamic power follows P ∝ C · V² · f.
package vscale

import (
	"fmt"
	"math"
	"strings"
)

// Corner describes one operating point of the cell library.
type Corner struct {
	// Name labels the corner ("nominal", "VR15", ...).
	Name string
	// Supply is the supply voltage in volts.
	Supply float64
}

// Model captures the technology constants of the target library. The
// defaults mirror a 45nm-class process at the typical corner the paper
// uses (NanGate 45nm, 1.1V, 25C).
type Model struct {
	// VddNominal is the nominal supply voltage in volts.
	VddNominal float64
	// Vth is the effective threshold voltage in volts.
	Vth float64
	// Alpha is the velocity-saturation exponent of the alpha-power law.
	Alpha float64
}

// Default45nm returns the model constants used throughout the reproduction:
// Vdd=1.1V, Vth=0.35V, alpha=1.3. With these, 15% and 20% supply reduction
// inflate delays by ~1.17x and ~1.26x respectively — the bands that produce
// the paper's VR15/VR20 failure ordering.
func Default45nm() Model {
	return Model{VddNominal: 1.1, Vth: 0.35, Alpha: 1.3}
}

// Validate reports whether the model constants are physically meaningful.
func (m Model) Validate() error {
	if m.VddNominal <= 0 || m.Vth <= 0 || m.Alpha <= 0 {
		return fmt.Errorf("vscale: non-positive model constant %+v", m)
	}
	if m.Vth >= m.VddNominal {
		return fmt.Errorf("vscale: Vth %.3f >= Vdd %.3f", m.Vth, m.VddNominal)
	}
	return nil
}

// delayFactor returns the un-normalized alpha-power delay at supply v.
func (m Model) delayFactor(v float64) float64 {
	return v / math.Pow(v-m.Vth, m.Alpha)
}

// DelayScale returns the multiplicative delay inflation at supply v
// relative to the nominal supply. DelayScale(VddNominal) == 1.
// It panics if v does not exceed Vth (the circuit would not switch).
func (m Model) DelayScale(v float64) float64 {
	if v <= m.Vth {
		panic(fmt.Sprintf("vscale: supply %.3fV at or below Vth %.3fV", v, m.Vth))
	}
	return m.delayFactor(v) / m.delayFactor(m.VddNominal)
}

// SupplyAtReduction returns the supply voltage after reducing the nominal
// supply by the given fraction (0.15 → 15% reduction).
func (m Model) SupplyAtReduction(fraction float64) float64 {
	if fraction < 0 || fraction >= 1 {
		panic(fmt.Sprintf("vscale: reduction fraction %.3f out of [0,1)", fraction))
	}
	return m.VddNominal * (1 - fraction)
}

// DynamicPowerRatio returns dynamic power at supply v relative to nominal,
// at constant frequency: (v/Vdd)^2.
func (m Model) DynamicPowerRatio(v float64) float64 {
	r := v / m.VddNominal
	return r * r
}

// PowerSavings returns the fractional dynamic-power saving of running at
// supply v instead of nominal, at constant frequency.
func (m Model) PowerSavings(v float64) float64 {
	return 1 - m.DynamicPowerRatio(v)
}

// VRLevel is a named voltage-reduction level of the evaluation.
type VRLevel struct {
	// Name is the paper's label ("VR15").
	Name string
	// Reduction is the supply reduction fraction (0.15).
	Reduction float64
}

// The two voltage-reduction levels evaluated in the paper, plus nominal.
var (
	Nominal = VRLevel{Name: "nominal", Reduction: 0}
	VR15    = VRLevel{Name: "VR15", Reduction: 0.15}
	VR20    = VRLevel{Name: "VR20", Reduction: 0.20}
)

// PaperLevels returns the VR levels of the paper's evaluation, in order.
func PaperLevels() []VRLevel { return []VRLevel{VR15, VR20} }

// ParseLevel maps a level name to one of the paper's levels, ignoring
// case ("vr20" is VR20).
func ParseLevel(name string) (VRLevel, error) {
	for _, lv := range PaperLevels() {
		if strings.EqualFold(lv.Name, name) {
			return lv, nil
		}
	}
	return VRLevel{}, fmt.Errorf("vscale: unknown level %q (VR15, VR20)", name)
}

// Corner materializes a VR level against a model.
func (m Model) Corner(level VRLevel) Corner {
	return Corner{Name: level.Name, Supply: m.SupplyAtReduction(level.Reduction)}
}

// ScaleFor is shorthand for the delay inflation of a VR level.
func (m Model) ScaleFor(level VRLevel) float64 {
	return m.DelayScale(m.SupplyAtReduction(level.Reduction))
}

// SafeVmin scans supply voltages downward from nominal in the given step
// and returns the lowest supply for which ok(v) reports true for all
// voltages visited down to and including it. It returns the nominal supply
// if even the first step fails. This implements the Section V-C use case:
// lowering voltage while the application's AVM stays at the target.
func (m Model) SafeVmin(step float64, floor float64, ok func(v float64) bool) float64 {
	if step <= 0 {
		panic("vscale: non-positive step")
	}
	best := m.VddNominal
	for v := m.VddNominal - step; v > floor && v > m.Vth; v -= step {
		if !ok(v) {
			break
		}
		best = v
	}
	return best
}
