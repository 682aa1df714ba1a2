package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"

	"teva/internal/guard"
	"teva/internal/obs"
)

// SupervisorConfig parameterizes a sharded prewarm run.
type SupervisorConfig struct {
	// Shards is the number of worker processes to keep alive (min 1).
	Shards int
	// WorkerBin is the worker executable; WorkerArgs are prepended to the
	// supervisor-provided "-supervisor ADDR -id ID" flags. Tests point
	// WorkerBin at os.Args[0] with a re-exec interception arg.
	WorkerBin  string
	WorkerArgs []string
	// WorkerEnv, when non-nil, is the complete environment ("K=V") of
	// every spawned worker, including restarts — so a poison-cell chaos
	// variable keeps killing replacements until quarantine. Nil inherits
	// the supervisor's environment; callers wanting "inherited plus
	// extras" build the slice themselves (os.Environ stays in cmd/ and
	// test code, keeping this package's inputs explicit).
	WorkerEnv []string
	// MaxRestarts bounds replacement spawns across the whole run
	// (0: 3*Shards+4 — enough for one poison unit to strike out plus
	// chaos kills). When the budget is gone, dead workers stay dead and
	// whatever is unfinished falls through to the in-process run.
	MaxRestarts int
	// KillAfterUnits > 0 arms the supervisor-side chaos switch: once that
	// many units have completed, SIGKILL one live worker (once). This is
	// the "SIGKILL a worker mid-campaign" scenario as a deterministic,
	// built-in trigger.
	KillAfterUnits int
	// Tracker tunes the lease state machine.
	Tracker TrackerConfig
	// Metrics receives shard.* counters (nil: a private registry).
	Metrics *obs.Registry
	// Diag receives supervisor diagnostics and line-prefixed worker
	// output (nil: discarded). Never stdout: the experiment stream must
	// stay byte-identical to the unsharded run.
	Diag io.Writer
	// PollInterval is the sweep/completion poll cadence (0: 100ms).
	PollInterval time.Duration
}

// Report summarizes a supervisor run for the exit summary.
type Report struct {
	Spawns          int64
	Restarts        int64
	LeaseExpiries   int64
	Reclaims        int64
	Quarantines     int64
	LateCompletions int64
	UnitsDone       int64
	SumMismatches   int64
	// Poisoned names the quarantined units, in submission order.
	Poisoned []QuarantinedUnit
	// Completed means every unit finished (none pending when the
	// supervisor stopped); quarantined units count as finished because
	// the in-process run recomputes them.
	Completed bool
}

// String renders the one-line exit summary.
func (r Report) String() string {
	s := fmt.Sprintf("shard: %d units done, %d spawns, %d restarts, %d lease expiries, %d reclaims, %d quarantined, %d late completions",
		r.UnitsDone, r.Spawns, r.Restarts, r.LeaseExpiries, r.Reclaims, r.Quarantines, r.LateCompletions)
	for _, q := range r.Poisoned {
		s += fmt.Sprintf("\nshard: poison unit %s quarantined after %d strikes: %s", q.ID, q.Strikes, q.LastErr)
	}
	return s
}

// Supervisor owns a sharded prewarm: one Tracker, one Coordinator, and
// N supervised worker processes.
type Supervisor struct {
	cfg     SupervisorConfig
	tracker *Tracker
	coord   *Coordinator
	reg     *obs.Registry
	diag    io.Writer
	diagMu  sync.Mutex

	mu       sync.Mutex
	live     map[string]*exec.Cmd
	spawns   int
	restarts int
	killed   bool // KillAfterUnits chaos already fired

	mSpawns, mRestarts *obs.Counter
}

// NewSupervisor builds the tracker and coordinator for units under cfg;
// plan is the opaque run description every worker fetches. Run starts
// the workers.
func NewSupervisor(units []Unit, plan json.RawMessage, cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 3*cfg.Shards + 4
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry(nil)
	}
	if cfg.Tracker.Metrics == nil {
		cfg.Tracker.Metrics = reg
	}
	diag := cfg.Diag
	if diag == nil {
		diag = io.Discard
	}
	s := &Supervisor{
		cfg:       cfg,
		tracker:   NewTracker(units, cfg.Tracker),
		reg:       reg,
		diag:      diag,
		live:      make(map[string]*exec.Cmd),
		mSpawns:   reg.Counter(MetricSpawns),
		mRestarts: reg.Counter(MetricRestarts),
	}
	coord, err := NewCoordinator(s.tracker, plan)
	if err != nil {
		return nil, err
	}
	s.coord = coord
	return s, nil
}

// Addr returns the coordinator's dial address.
func (s *Supervisor) Addr() string { return s.coord.Addr() }

func (s *Supervisor) diagf(format string, args ...any) {
	s.diagMu.Lock()
	defer s.diagMu.Unlock()
	fmt.Fprintf(s.diag, format+"\n", args...)
}

// Run spawns the workers and drives the prewarm until every unit is done
// or quarantined, the restart budget is exhausted with no live workers,
// or ctx is cancelled. It always returns a Report; a non-nil error
// reports a supervisor-level fault (worker faults are not errors — they
// are the thing this machinery absorbs).
func (s *Supervisor) Run(ctx context.Context) (Report, error) {
	defer func() {
		s.killAll()
		// The coordinator's shutdown grace period must survive run-ctx
		// cancellation (dying workers may still be posting completions),
		// so Close roots its own short timeout instead of forwarding ctx.
		if err := s.coord.Close(); err != nil { //teva:allow ctxflow -- shutdown grace must outlive a canceled run ctx
			s.diagf("shard: coordinator close: %v", err)
		}
	}()

	var wg sync.WaitGroup
	var sink guard.Sink
	deaths := make(chan string, s.cfg.Shards*(s.cfg.MaxRestarts+2))
	for i := 0; i < s.cfg.Shards; i++ {
		s.spawn(ctx, &wg, &sink, deaths, false)
	}

	ticker := time.NewTicker(s.cfg.PollInterval)
	defer ticker.Stop()
	for !s.tracker.Done() {
		select {
		case <-ctx.Done():
			s.diagf("shard: cancelled: %v", ctx.Err())
			return s.report(), ctx.Err()
		case id := <-deaths:
			s.tracker.WorkerDied(id)
			if s.tracker.Done() {
				break
			}
			s.mu.Lock()
			budget := s.restarts < s.cfg.MaxRestarts
			nLive := len(s.live)
			s.mu.Unlock()
			if budget {
				s.spawn(ctx, &wg, &sink, deaths, true)
			} else if nLive == 0 {
				s.diagf("shard: restart budget exhausted with no live workers; degrading to in-process execution")
				return s.report(), nil
			}
		case <-ticker.C:
			s.tracker.Sweep()
			s.maybeChaosKill()
		}
	}

	// Workers drain on their own once the tracker reports done; give
	// them a moment, then reap stragglers.
	s.killAll()
	wg.Wait()
	if err := sink.Join(); err != nil {
		s.diagf("shard: supervisor goroutine fault: %v", err)
	}
	return s.report(), nil
}

// spawn starts one worker process and its watcher goroutines.
func (s *Supervisor) spawn(ctx context.Context, wg *sync.WaitGroup, sink *guard.Sink, deaths chan<- string, restart bool) {
	s.mu.Lock()
	id := fmt.Sprintf("w%d", s.spawns)
	s.spawns++
	if restart {
		s.restarts++
	}
	s.mu.Unlock()

	args := append(append([]string{}, s.cfg.WorkerArgs...), "-supervisor", s.coord.Addr(), "-id", id)
	cmd := exec.CommandContext(ctx, s.cfg.WorkerBin, args...)
	cmd.Env = s.cfg.WorkerEnv // nil inherits the supervisor's environment
	stdout, err1 := cmd.StdoutPipe()
	stderr, err2 := cmd.StderrPipe()
	if err1 != nil || err2 != nil {
		s.diagf("shard: %s: pipe setup failed: %v %v", id, err1, err2)
		deaths <- id
		return
	}
	if err := cmd.Start(); err != nil {
		s.diagf("shard: %s: start %s failed: %v", id, s.cfg.WorkerBin, err)
		deaths <- id
		return
	}
	s.mSpawns.Inc()
	if restart {
		s.mRestarts.Inc()
		s.diagf("shard: restarted worker %s (pid %d)", id, cmd.Process.Pid)
	} else {
		s.diagf("shard: spawned worker %s (pid %d)", id, cmd.Process.Pid)
	}
	s.mu.Lock()
	s.live[id] = cmd
	s.mu.Unlock()

	guard.Go(wg, sink, "shard.pipe."+id, func() error {
		s.prefixPipe(id+"/out", stdout)
		return nil
	})
	guard.Go(wg, sink, "shard.pipe."+id, func() error {
		s.prefixPipe(id+"/err", stderr)
		return nil
	})
	guard.Go(wg, sink, "shard.watch."+id, func() error {
		err := cmd.Wait()
		s.mu.Lock()
		delete(s.live, id)
		s.mu.Unlock()
		if err != nil {
			s.diagf("shard: worker %s exited: %v", id, err)
		} else {
			s.diagf("shard: worker %s exited cleanly", id)
		}
		deaths <- id
		return nil
	})
}

// prefixPipe copies a worker stream to Diag, one prefixed line at a time.
func (s *Supervisor) prefixPipe(tag string, r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		s.diagf("[%s] %s", tag, sc.Text())
	}
}

// maybeChaosKill fires the KillAfterUnits switch at most once.
func (s *Supervisor) maybeChaosKill() {
	if s.cfg.KillAfterUnits <= 0 {
		return
	}
	if s.tracker.Counts().Done < s.cfg.KillAfterUnits {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return
	}
	for id, cmd := range s.live {
		if cmd.Process != nil {
			s.killed = true
			s.diagf("shard: chaos: SIGKILL worker %s (pid %d) after %d units", id, cmd.Process.Pid, s.cfg.KillAfterUnits)
			_ = cmd.Process.Kill()
			return
		}
	}
}

// killAll SIGKILLs every live worker (shutdown path).
func (s *Supervisor) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cmd := range s.live {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}
}

// report snapshots the counters and quarantine list.
func (s *Supervisor) report() Report {
	c := s.tracker.Counts()
	return Report{
		Spawns:          s.reg.Counter(MetricSpawns).Value(),
		Restarts:        s.reg.Counter(MetricRestarts).Value(),
		LeaseExpiries:   s.reg.Counter(MetricLeaseExpiries).Value(),
		Reclaims:        s.reg.Counter(MetricReclaims).Value(),
		Quarantines:     s.reg.Counter(MetricQuarantines).Value(),
		LateCompletions: s.reg.Counter(MetricLateCompletions).Value(),
		UnitsDone:       s.reg.Counter(MetricUnitsDone).Value(),
		SumMismatches:   s.reg.Counter(MetricSumMismatches).Value(),
		Poisoned:        s.tracker.Quarantined(),
		Completed:       c.Done+c.Quarantined == c.Total,
	}
}
