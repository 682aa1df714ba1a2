package trace

import (
	"testing"

	"teva/internal/dta"
	"teva/internal/fpu"
	"teva/internal/workloads"
)

func capture(t *testing.T, name string) *Trace {
	t.Helper()
	w, err := workloads.ByName(name, workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Capture(w, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCaptureSobel(t *testing.T) {
	tr := capture(t, "sobel")
	if tr.Workload != "sobel" || tr.TotalInstr == 0 || tr.Cycles == 0 {
		t.Fatalf("trace metadata: %+v", tr)
	}
	// Sobel uses dmul, dadd, ddiv, i2f, f2i.
	for _, op := range []fpu.Op{fpu.DMul, fpu.DAdd, fpu.DDiv, fpu.DI2F, fpu.DF2I} {
		if tr.OpCounts[op] == 0 {
			t.Errorf("sobel trace missing %s ops", op)
		}
		if len(tr.Pairs[op]) == 0 {
			t.Errorf("sobel trace has no %s operand samples", op)
		}
	}
	if tr.FPTotal() == 0 {
		t.Fatal("no FP ops counted")
	}
	if share := tr.OpShare(fpu.DMul); share <= 0 || share >= 1 {
		t.Fatalf("dmul share %v", share)
	}
	// Single-precision ops never appear in sobel.
	if tr.OpCounts[fpu.SMul] != 0 || len(tr.Pairs[fpu.SMul]) != 0 {
		t.Fatal("unexpected single-precision activity")
	}
}

func TestReservoirCapRespected(t *testing.T) {
	w, err := workloads.ByName("is", workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Capture(w, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	for op := range tr.Pairs {
		if len(tr.Pairs[op]) > 100 {
			t.Fatalf("%s sample exceeds cap: %d", fpu.Op(op), len(tr.Pairs[op]))
		}
	}
	// is performs far more fp-mul than the cap.
	if tr.OpCounts[fpu.DMul] <= 100 || len(tr.Pairs[fpu.DMul]) != 100 {
		t.Fatalf("reservoir should be full: count=%d sample=%d",
			tr.OpCounts[fpu.DMul], len(tr.Pairs[fpu.DMul]))
	}
}

func TestCaptureDeterministic(t *testing.T) {
	t1 := capture(t, "cg")
	t2 := capture(t, "cg")
	for op := range t1.Pairs {
		if len(t1.Pairs[op]) != len(t2.Pairs[op]) {
			t.Fatal("sample sizes differ across identical captures")
		}
		for i := range t1.Pairs[op] {
			if t1.Pairs[op][i] != t2.Pairs[op][i] {
				t.Fatal("samples differ across identical captures")
			}
		}
	}
}

func TestOperandsAreWorkloadTypical(t *testing.T) {
	// hotspot's fp-mul operands include the characteristic constants
	// (temperatures near 323, coefficients) — magnitudes far from
	// uniformly random 64-bit patterns. Check exponent concentration:
	// most operands decode to absolute values in (1e-30, 1e10).
	tr := capture(t, "hotspot")
	pairs := tr.Pairs[fpu.DMul]
	if len(pairs) == 0 {
		t.Fatal("no dmul samples")
	}
	typical := 0
	for _, p := range pairs {
		if inRange(p.A) && inRange(p.B) {
			typical++
		}
	}
	if frac := float64(typical) / float64(len(pairs)); frac < 0.9 {
		t.Fatalf("only %.2f of operands in workload-typical range", frac)
	}
}

func inRange(bits uint64) bool {
	exp := int(bits >> 52 & 0x7ff)
	if bits<<1 == 0 {
		return true // zero
	}
	return exp > 923 && exp < 1057 // |v| in ~(1e-30, 1e10)
}

// TestFingerprint checks the content hash a captured trace keeps: a trace
// rebuilt with equal content hashes equal, and changing any sampled pair,
// dynamic count, TotalInstr or Cycles changes the hash.
func TestFingerprint(t *testing.T) {
	tr := capture(t, "sobel")
	clone := func() *Trace {
		c := &Trace{Workload: tr.Workload, OpCounts: tr.OpCounts, TotalInstr: tr.TotalInstr, Cycles: tr.Cycles}
		for op := range tr.Pairs {
			c.Pairs[op] = append([]dta.Pair(nil), tr.Pairs[op]...)
		}
		return c
	}
	want := tr.Fingerprint()
	if got := clone().Fingerprint(); got != want {
		t.Fatalf("equal content: fingerprint %#x, captured %#x", got, want)
	}
	if again := capture(t, "sobel").Fingerprint(); again != want {
		t.Fatalf("recaptured trace: fingerprint %#x, want %#x", again, want)
	}
	changed := map[string]func(c *Trace){
		"TotalInstr": func(c *Trace) { c.TotalInstr++ },
		"Cycles":     func(c *Trace) { c.Cycles++ },
	}
	for op := range tr.Pairs {
		op := op
		name := fpu.Op(op).String()
		changed[name+" count"] = func(c *Trace) { c.OpCounts[op]++ }
		if len(tr.Pairs[op]) == 0 {
			changed[name+" pairs"] = func(c *Trace) { c.Pairs[op] = append(c.Pairs[op], dta.Pair{}) }
			continue
		}
		last := len(tr.Pairs[op]) - 1
		changed[name+" first A"] = func(c *Trace) { c.Pairs[op][0].A ^= 1 }
		changed[name+" last B"] = func(c *Trace) { c.Pairs[op][last].B ^= 1 << 63 }
		changed[name+" dropped pair"] = func(c *Trace) { c.Pairs[op] = c.Pairs[op][:last] }
	}
	for name, mutate := range changed {
		c := clone()
		mutate(c)
		if c.Fingerprint() == want {
			t.Errorf("changing %s left the fingerprint at %#x", name, want)
		}
	}
}
