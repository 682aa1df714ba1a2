package shard

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"teva/internal/obs"
)

// stateOf renders everything a request can change — the unit records,
// the outstanding leases, the lease counter and the shard.* counters —
// as one string (fmt prints maps in key order).
func stateOf(tr *Tracker, reg *obs.Registry) string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	units := make(map[string]trackedUnit, len(tr.units))
	for id, tu := range tr.units {
		units[id] = *tu
	}
	leases := make(map[string]leaseRec, len(tr.leases))
	for id, rec := range tr.leases {
		leases[id] = *rec
	}
	return fmt.Sprintf("%+v\n%+v\nnext=%d\n%s", units, leases, tr.nextID, reg.Snapshot().JSON())
}

// FuzzCoordinatorBodies feeds arbitrary bodies to the handlers of the
// three mutating lease-protocol endpoints of a Coordinator whose tracker
// has one unit leased (lease L1) and two pending. Every reply must be 2xx or 4xx with
// no panic, and a rejected (4xx) body must leave the tracker exactly as
// it was: a garbled request from a dying worker can never lease, extend
// or settle a unit. Each input starts from a fresh tracker, so coverage
// is a function of the input alone.
func FuzzCoordinatorBodies(f *testing.F) {
	for _, s := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"worker":"w0"}`},
		{0, `{}`},
		{0, `{"worker":5}`},
		{1, `{"lease":"L1"}`},
		{1, `{"lease":"L1"`},
		{2, `{"lease":"L1","unit":"random/VR15/fp-add.d","sum":"s"}`},
		{2, `{"lease":"L1","unit":"random/VR15/fp-add.d","err":"boom"}`},
		{2, `{"lease":"L9","unit":"cell/is/WA/VR15","sum":"late"}`},
		{2, `{"lease":"L1","unit":"random/VR15/fp-add.d"} trailing`},
		{0, `null`},
		{1, `[]`},
		{2, ``},
	} {
		f.Add(s.endpoint, []byte(s.body))
	}
	paths := []string{"/v1/lease", "/v1/heartbeat", "/v1/complete"}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		reg := obs.NewRegistry(nil)
		// A frozen clock: no lease expires between the two snapshots, so
		// any difference is the request's doing.
		now := time.Unix(1700000000, 0)
		tr := NewTracker(testUnits(), TrackerConfig{
			LeaseTTL: time.Hour,
			Metrics:  reg,
			Now:      func() time.Time { return now },
		})
		if g := tr.Lease("w0"); g.Lease != "L1" {
			t.Fatalf("setup lease = %+v, want L1", g)
		}
		c := &Coordinator{tracker: tr}
		i := int(endpoint) % len(paths)
		handle := []http.HandlerFunc{c.handleLease, c.handleHeartbeat, c.handleComplete}[i]
		path := paths[i]
		before := stateOf(tr, reg)
		rec := httptest.NewRecorder()
		handle(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code / 100 {
		case 2:
		case 4:
			if after := stateOf(tr, reg); after != before {
				t.Fatalf("%s rejected %q with %d but changed the tracker", path, body, rec.Code)
			}
		default:
			t.Fatalf("%s answered %q with %d, want 2xx or 4xx", path, body, rec.Code)
		}
	})
}
