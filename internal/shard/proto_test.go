package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"teva/internal/obs"
)

func TestCoordinatorRoundTrip(t *testing.T) {
	reg := obs.NewRegistry(nil)
	tr := NewTracker(testUnits(), TrackerConfig{
		LeaseTTL:     5 * time.Second,
		RetryBackoff: 10 * time.Millisecond,
		Metrics:      reg,
	})
	// The plan is opaque to this package: whatever bytes the supervisor
	// hands in are what every worker fetches.
	plan := json.RawMessage(`{"Options":{"Runs":24},"CacheDir":"cache"}`)
	coord, err := NewCoordinator(tr, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx := context.Background()
	c := NewClient(coord.Addr())

	got, err := c.FetchPlan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plan) {
		t.Fatalf("plan round trip = %s, want %s", got, plan)
	}

	g, err := c.Lease(ctx, "w0")
	if err != nil || !g.OK {
		t.Fatalf("lease = %+v, %v", g, err)
	}
	if g.Unit.ID() != testUnits()[0].ID() {
		t.Fatalf("leased %s, want %s", g.Unit.ID(), testUnits()[0].ID())
	}
	if ok, err := c.Heartbeat(ctx, g.Lease); err != nil || !ok {
		t.Fatalf("heartbeat = %v, %v", ok, err)
	}
	if ok, err := c.Complete(ctx, g.Lease, g.Unit.ID(), "sum", ""); err != nil || !ok {
		t.Fatalf("complete = %v, %v", ok, err)
	}
	if ok, err := c.Heartbeat(ctx, g.Lease); err != nil || ok {
		t.Fatalf("heartbeat on settled lease = %v, %v; want refused", ok, err)
	}
}

func TestClientLoopDrainsTracker(t *testing.T) {
	reg := obs.NewRegistry(nil)
	tr := NewTracker(testUnits(), TrackerConfig{
		LeaseTTL:     5 * time.Second,
		RetryBackoff: 10 * time.Millisecond,
		Metrics:      reg,
	})
	coord, err := NewCoordinator(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := NewClient(coord.Addr())
	var seen []string
	err = ClientLoop(ctx, c, "w0", func(ctx context.Context, u Unit) (string, error) {
		seen = append(seen, u.ID())
		return "S:" + u.ID(), nil
	})
	if err != nil {
		t.Fatalf("ClientLoop: %v", err)
	}
	if !tr.Done() {
		t.Fatal("tracker not drained")
	}
	if len(seen) != len(testUnits()) {
		t.Fatalf("executed %d units, want %d", len(seen), len(testUnits()))
	}
	// Stage gating must have ordered random -> wa -> cell.
	want := []string{"random/VR15/fp-add.d", "wa/VR15/is", "cell/is/WA/VR15"}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", seen, want)
		}
	}
}

func TestClientLoopIsolatesExecutorPanic(t *testing.T) {
	reg := obs.NewRegistry(nil)
	tr := NewTracker(testUnits()[:2], TrackerConfig{
		LeaseTTL:     5 * time.Second,
		MaxStrikes:   1, // first panic quarantines, so the loop terminates fast
		RetryBackoff: time.Millisecond,
		Metrics:      reg,
	})
	coord, err := NewCoordinator(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := NewClient(coord.Addr())
	err = ClientLoop(ctx, c, "w0", func(ctx context.Context, u Unit) (string, error) {
		if u.Kind == UnitRandom {
			panic("injected executor panic")
		}
		return "S:" + u.ID(), nil
	})
	if err != nil {
		t.Fatalf("ClientLoop should survive an executor panic, got %v", err)
	}
	q := tr.Quarantined()
	if len(q) != 1 || q[0].ID != testUnits()[0].ID() {
		t.Fatalf("quarantined = %+v, want the panicking unit", q)
	}
	if got := reg.Counter(MetricUnitsDone).Value(); got != 1 {
		t.Fatalf("units_done = %d, want 1 (the healthy unit)", got)
	}
}
