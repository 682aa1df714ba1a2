package errmodel

import (
	"bytes"
	"testing"

	"teva/internal/cpu"
	"teva/internal/dta"
	"teva/internal/fpu"
	"teva/internal/prng"
)

// FuzzUnmarshalModel feeds arbitrary bytes to the model-file decoder
// that teva-inject reads. The invariants: Unmarshal either rejects or
// returns a model that survives a Marshal→Unmarshal round trip with an
// identical encoding, and that describes itself and drives both
// injector forms (per-writeback and single-injection) without panicking.
func FuzzUnmarshalModel(f *testing.F) {
	for _, m := range []Model{
		BuildDA("VR15", 3, 1000),
		BuildIA("VR20", map[fpu.Op]*dta.Summary{
			fpu.DMul: summaryWith(fpu.DMul, 100, []uint64{0b101}),
		}),
		BuildWA("VR20", "sobel", map[fpu.Op]*dta.Summary{
			fpu.DAdd: summaryWith(fpu.DAdd, 50, []uint64{0xAA}),
		}),
	} {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		``,
		`null`,
		`{"kind":"DA","body":null}`,
		`{"kind":"DA","body":{"er":1}}`,
		`{"kind":"DA","body":{"er":-3}}`,
		`{"kind":"IA","body":{"per_op":[{"er":1,"bit_prob":[]}]}}`,
		`{"kind":"IA","body":{"per_op":[{"er":1,"bit_prob":[0,0,0]}]}}`,
		`{"kind":"IA","body":{"per_op":[{"er":1e308,"bit_prob":[-1,2]},{"er":-1e308}]}}`,
		`{"kind":"WA","body":{"per_op":[{"er":1,"masks":[]},{"er":1,"masks":[0]}]}}`,
		`{"kind":"WA","body":{"per_op":[{},{},{},{},{},{},{},{},{},{},{},{},{"er":1,"masks":[1]}]}}`,
		`{"kind":"XX","body":{}}`,
		`{"kind":"IA","body":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected is always acceptable; panicking is not
		}
		enc, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted model does not marshal: %v (input %q)", err, data)
		}
		back, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("model's own encoding is rejected: %v\n%s", err, enc)
		}
		again, err := Marshal(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the model:\n%s\nvs\n%s (err %v)", enc, again, err)
		}
		if back.Kind() != m.Kind() || back.Level() != m.Level() || back.Describe() != m.Describe() {
			t.Fatalf("round trip changed the identity: %s vs %s", back.Describe(), m.Describe())
		}
		exercise(m)
	})
}

// exercise drives every consumer of a decoded model once: ExpectedER,
// the per-writeback injector over each op and an integer writeback, and
// a single-injection run over a synthetic execution profile.
func exercise(m Model) {
	var shares [fpu.NumOps]float64
	prof := ExecProfile{TotalInstr: 3 * int64(fpu.NumOps)}
	for op := range shares {
		shares[op] = 1 / float64(fpu.NumOps)
		prof.FPOps[op] = 3
		if op%3 == 0 {
			prof.FPOps[op] = 0
		}
	}
	m.ExpectedER(shares)
	src := prng.New(1)
	inj := m.NewInjector(src)
	for _, op := range fpu.Ops() {
		inj.OnWriteback(fpEvent(op))
	}
	inj.OnWriteback(cpu.Event{Width: 32})
	s := SingleInjector(m, prof, src)
	if s == nil {
		return
	}
	// Three rounds over the ops, with an integer writeback in place of
	// every third op, retire exactly the profile.
	var at cpu.Result
	for round := 0; round < 3; round++ {
		for _, op := range fpu.Ops() {
			at.Instret++
			ev := fpEvent(op)
			if op%3 == 0 {
				ev = cpu.Event{Width: 64}
			} else {
				at.FPOps[op]++
			}
			ev.Seq = at.Instret
			s.OnWriteback(ev)
		}
	}
	s.Exhausted(at)
}
