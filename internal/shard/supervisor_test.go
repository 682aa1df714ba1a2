package shard

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain doubles as the test suite's worker binary: when the
// supervisor re-execs this test binary with TEVA_SHARD_TEST_WORKER set,
// we run a ClientLoop worker instead of the tests. This keeps the
// process-supervision tests hermetic — no `go build` step, no external
// binary.
func TestMain(m *testing.M) {
	if os.Getenv("TEVA_SHARD_TEST_WORKER") != "" {
		os.Exit(testWorkerMain())
	}
	os.Exit(m.Run())
}

func testWorkerMain() int {
	var addr, id string
	for i, a := range os.Args {
		switch a {
		case "-supervisor":
			addr = os.Args[i+1]
		case "-id":
			id = os.Args[i+1]
		}
	}
	killSub := os.Getenv("TEVA_SHARD_TEST_KILL_UNIT")
	delay := 0
	if v := os.Getenv("TEVA_SHARD_TEST_UNIT_DELAY_MS"); v != "" {
		delay, _ = strconv.Atoi(v)
	}
	c := NewClient(addr)
	err := ClientLoop(context.Background(), c, id, func(ctx context.Context, u Unit) (string, error) {
		if killSub != "" && strings.Contains(u.ID(), killSub) {
			// Simulate a hard OS-level fault mid-unit: SIGKILL ourselves,
			// no deferred cleanup, no exit handler.
			p, _ := os.FindProcess(os.Getpid())
			_ = p.Kill()
			select {}
		}
		if delay > 0 {
			time.Sleep(time.Duration(delay) * time.Millisecond)
		}
		return "S:" + u.ID(), nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "test worker %s: %v\n", id, err)
		return 1
	}
	return 0
}

// matrixUnits builds a flat stage-0 unit set of the given size.
func matrixUnits(n int) []Unit {
	units := make([]Unit, n)
	for i := range units {
		units[i] = Unit{Kind: UnitRandom, Level: "VR15", OpName: fmt.Sprintf("op-%02d", i), Op: i}
	}
	return units
}

func newTestSupervisor(t *testing.T, units []Unit, mutate func(*SupervisorConfig)) (*Supervisor, *bytes.Buffer) {
	t.Helper()
	var diag bytes.Buffer
	cfg := SupervisorConfig{
		Shards:    2,
		WorkerBin: os.Args[0],
		WorkerEnv: append(os.Environ(), "TEVA_SHARD_TEST_WORKER=1"),
		Tracker: TrackerConfig{
			LeaseTTL:     5 * time.Second,
			RetryBackoff: 10 * time.Millisecond,
		},
		Diag:         &diag,
		PollInterval: 10 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewSupervisor(units, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, &diag
}

func runSupervisor(t *testing.T, s *Supervisor) Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := s.Run(ctx)
	if err != nil {
		t.Fatalf("supervisor run: %v\nreport: %+v", err, rep)
	}
	return rep
}

func TestSupervisorHappyPath(t *testing.T) {
	s, _ := newTestSupervisor(t, matrixUnits(6), nil)
	rep := runSupervisor(t, s)
	if !rep.Completed || rep.UnitsDone != 6 {
		t.Fatalf("report = %+v, want 6 units completed", rep)
	}
	if rep.Spawns != 2 || rep.Restarts != 0 {
		t.Fatalf("report = %+v, want 2 spawns and no restarts", rep)
	}
	if len(rep.Poisoned) != 0 {
		t.Fatalf("unexpected quarantine: %+v", rep.Poisoned)
	}
}

func TestSupervisorRestartsSIGKILLedWorker(t *testing.T) {
	s, diag := newTestSupervisor(t, matrixUnits(10), func(cfg *SupervisorConfig) {
		cfg.KillAfterUnits = 2
		cfg.WorkerEnv = append(cfg.WorkerEnv, "TEVA_SHARD_TEST_UNIT_DELAY_MS=30")
	})
	rep := runSupervisor(t, s)
	if !rep.Completed || rep.UnitsDone < 10 {
		t.Fatalf("report = %+v, want all 10 units done despite the SIGKILL", rep)
	}
	if rep.Restarts < 1 {
		t.Fatalf("report = %+v, want at least one restart after the chaos SIGKILL", rep)
	}
	if !strings.Contains(diag.String(), "chaos: SIGKILL worker") {
		t.Fatalf("diag missing chaos kill record:\n%s", diag.String())
	}
	if !strings.Contains(rep.String(), fmt.Sprintf("%d restarts", rep.Restarts)) {
		t.Fatalf("exit summary %q does not report restarts", rep.String())
	}
}

func TestSupervisorQuarantinesPoisonUnit(t *testing.T) {
	units := matrixUnits(5)
	poison := units[2].ID()
	s, _ := newTestSupervisor(t, units, func(cfg *SupervisorConfig) {
		// Every worker (including restarts) self-SIGKILLs on the poison
		// unit, so it strikes out and is quarantined by name while the
		// other four units finish.
		cfg.WorkerEnv = append(cfg.WorkerEnv, "TEVA_SHARD_TEST_KILL_UNIT="+poison)
	})
	rep := runSupervisor(t, s)
	if !rep.Completed {
		t.Fatalf("report = %+v, want run completed around the poison unit", rep)
	}
	if rep.UnitsDone != 4 || rep.Quarantines != 1 {
		t.Fatalf("report = %+v, want 4 done + 1 quarantined", rep)
	}
	if len(rep.Poisoned) != 1 || rep.Poisoned[0].ID != poison {
		t.Fatalf("poisoned = %+v, want %s", rep.Poisoned, poison)
	}
	if !strings.Contains(rep.String(), "poison unit "+poison) {
		t.Fatalf("exit summary %q does not name the poison unit", rep.String())
	}
}

func TestSupervisorDegradesWhenWorkersUnavailable(t *testing.T) {
	s, diag := newTestSupervisor(t, matrixUnits(3), func(cfg *SupervisorConfig) {
		cfg.WorkerBin = "/nonexistent/teva-worker"
		cfg.MaxRestarts = 2
	})
	rep := runSupervisor(t, s)
	if rep.Completed || rep.UnitsDone != 0 {
		t.Fatalf("report = %+v, want an incomplete prewarm with zero units done", rep)
	}
	if !strings.Contains(diag.String(), "degrading to in-process execution") {
		t.Fatalf("diag missing degradation notice:\n%s", diag.String())
	}
}
