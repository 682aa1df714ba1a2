package serve

import (
	"strings"
	"testing"
)

// FuzzDecodeSpec hammers the spec decoder with arbitrary bodies. The
// invariant: DecodeSpec either rejects with an error or returns a spec
// that is fully usable — it re-validates, has a content address, and
// translates into pipeline options — and it never panics. The decoder
// is the server's entire untrusted-input surface, so this is the fuzz
// target that matters.
func FuzzDecodeSpec(f *testing.F) {
	seeds := []string{
		`{}`,
		`null`,
		`{"experiments":["fig7"],"quick":true}`,
		`{"experiments":["all"],"full":true,"seed":99}`,
		`{"experiments":["fig9","fig7"],"runs":12,"workers":4,"timing":"exact"}`,
		`{"corners":"nominal,0.85,VR20"}`,
		`{"sta_screen":true,"screen_guardband":2.5,"screen_validate":true}`,
		`{"scale":"tiny","timeout_factor":3.5,"max_duration":"90s"}`,
		`{"experiments":[`,
		`{"experiments": "fig7"}`,
		`{"experiment": "fig7"}`,
		`{"runs": -1}`,
		`{"runs": 1e18}`,
		`{"seed": -1}`,
		`{"timeout_factor": -1}`,
		`{"timeout_factor": 1e999}`,
		`{"max_duration": "soon"}`,
		`{"timing": "turbo"}`,
		`{} {}`,
		`[]`,
		`"fig7"`,
		strings.Repeat(`{"experiments":["fig7",`, 1000),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		sp, err := DecodeSpec(strings.NewReader(body))
		if err != nil {
			return // rejected is always acceptable; panicking is not
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v (body %q)", err, body)
		}
		if sp.JobID() == "" || sp.Key() == "" {
			t.Fatalf("accepted spec has no content address (body %q)", body)
		}
		if _, _, err := sp.Effective(); err != nil {
			t.Fatalf("accepted spec fails Effective: %v (body %q)", err, body)
		}
	})
}
