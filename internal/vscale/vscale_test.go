package vscale

import (
	"math"
	"testing"
)

func TestDefaultModelValid(t *testing.T) {
	if err := Default45nm().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConstants(t *testing.T) {
	bad := []Model{
		{VddNominal: 0, Vth: 0.3, Alpha: 1.3},
		{VddNominal: 1.1, Vth: 0, Alpha: 1.3},
		{VddNominal: 1.1, Vth: 0.3, Alpha: 0},
		{VddNominal: 1.0, Vth: 1.0, Alpha: 1.3},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Fatalf("model %d should fail validation: %+v", i, m)
		}
	}
}

func TestDelayScaleNominalIsOne(t *testing.T) {
	m := Default45nm()
	if s := m.DelayScale(m.VddNominal); math.Abs(s-1) > 1e-12 {
		t.Fatalf("DelayScale(nominal) = %v", s)
	}
}

func TestDelayScaleBands(t *testing.T) {
	// The reproduction's calibration depends on these bands: VR15 ≈ 1.17x,
	// VR20 ≈ 1.26x delay inflation.
	m := Default45nm()
	s15 := m.ScaleFor(VR15)
	s20 := m.ScaleFor(VR20)
	if s15 < 1.14 || s15 > 1.21 {
		t.Fatalf("VR15 delay scale %v outside calibration band", s15)
	}
	if s20 < 1.22 || s20 > 1.30 {
		t.Fatalf("VR20 delay scale %v outside calibration band", s20)
	}
	if s20 <= s15 {
		t.Fatal("deeper undervolting must inflate delay more")
	}
}

func TestDelayScaleMonotonic(t *testing.T) {
	m := Default45nm()
	prev := m.DelayScale(m.VddNominal)
	for v := m.VddNominal - 0.01; v > m.Vth+0.05; v -= 0.01 {
		s := m.DelayScale(v)
		if s <= prev {
			t.Fatalf("delay scale not increasing at %vV: %v <= %v", v, s, prev)
		}
		prev = s
	}
}

func TestDelayScalePanicsBelowVth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic at Vth")
		}
	}()
	m := Default45nm()
	m.DelayScale(m.Vth)
}

func TestSupplyAtReduction(t *testing.T) {
	m := Default45nm()
	if v := m.SupplyAtReduction(0.15); math.Abs(v-0.935) > 1e-12 {
		t.Fatalf("15%% reduction: %v", v)
	}
	if v := m.SupplyAtReduction(0); v != m.VddNominal {
		t.Fatalf("0%% reduction: %v", v)
	}
}

func TestPowerModel(t *testing.T) {
	m := Default45nm()
	if r := m.DynamicPowerRatio(m.VddNominal); math.Abs(r-1) > 1e-12 {
		t.Fatalf("nominal power ratio %v", r)
	}
	// The paper: 1.1V -> 0.88V is "up to 56%" power improvement... at
	// constant frequency V^2 gives 36%; the quoted 56% includes frequency
	// effects. Check the V^2 component.
	sav := m.PowerSavings(0.88)
	if math.Abs(sav-0.36) > 1e-9 {
		t.Fatalf("PowerSavings(0.88) = %v, want 0.36", sav)
	}
}

func TestCorners(t *testing.T) {
	levels := PaperLevels()
	if len(levels) != 2 || levels[0] != VR15 || levels[1] != VR20 {
		t.Fatalf("paper levels %v", levels)
	}
}

func TestTemperatureScale(t *testing.T) {
	m := Default45nm()
	if s := m.TemperatureScale(TempNominalC); math.Abs(s-1) > 1e-12 {
		t.Fatalf("nominal temperature scale %v", s)
	}
	s85 := m.TemperatureScale(85)
	s125 := m.TemperatureScale(125)
	if !(1 < s85 && s85 < s125) {
		t.Fatalf("temperature scaling not monotone: %v %v", s85, s125)
	}
	if s125 > 1.2 {
		t.Fatalf("125C derate %v implausibly large", s125)
	}
	cold := m.TemperatureScale(0)
	if cold >= 1 {
		t.Fatalf("cold silicon should be faster: %v", cold)
	}
}

func TestAgingScale(t *testing.T) {
	m := Default45nm()
	if m.AgingScale(0) != 1 {
		t.Fatal("fresh silicon must have unity scale")
	}
	s3, s7 := m.AgingScale(3), m.AgingScale(7)
	if !(1 < s3 && s3 < s7) {
		t.Fatalf("aging not monotone: %v %v", s3, s7)
	}
	// Sub-linear BTI: the second span ages less than the first.
	if s7-s3 >= s3-1 {
		t.Fatalf("aging should decelerate: %v then %v", s3-1, s7-s3)
	}
	if m.AgedVth(3) <= m.Vth {
		t.Fatal("Vth must drift upward")
	}
}

func TestOverclockScale(t *testing.T) {
	m := Default45nm()
	if m.OverclockScale(1) != 1 || m.OverclockScale(1.2) != 1.2 {
		t.Fatal("overclock scale is the frequency multiplier")
	}
}

func TestStressCornerComposition(t *testing.T) {
	m := Default45nm()
	if s := m.Scale(NominalCorner()); math.Abs(s-1) > 1e-12 {
		t.Fatalf("nominal corner scale %v", s)
	}
	combined := m.Scale(StressCorner{
		SupplyReduction: 0.10, TempC: 85, AgeYears: 3, FreqMult: 1.05,
	})
	product := m.DelayScale(m.SupplyAtReduction(0.10)) *
		m.TemperatureScale(85) * m.AgingScale(3) * 1.05
	if math.Abs(combined-product) > 1e-12 {
		t.Fatalf("corner composition %v != product %v", combined, product)
	}
	if combined <= m.ScaleFor(VR15) {
		t.Fatal("combined stress should exceed mild undervolting alone")
	}
}
