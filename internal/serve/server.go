package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"teva/internal/artifact"
	"teva/internal/core"
	"teva/internal/experiments"
	"teva/internal/guard"
	"teva/internal/obs"
)

// Metric names published by the serving layer on the server registry.
// Deduped counts submissions joined onto an existing job (the
// single-flight contract: N identical submissions, one computation);
// rejected counts submissions refused because the server was draining.
const (
	MetricJobsSubmitted = "serve.jobs_submitted"
	MetricJobsDeduped   = "serve.jobs_deduped"
	MetricJobsCompleted = "serve.jobs_completed"
	MetricJobsFailed    = "serve.jobs_failed"
	MetricJobsCanceled  = "serve.jobs_canceled"
	MetricJobsRejected  = "serve.jobs_rejected"
)

// ErrDraining rejects submissions once a drain has begun.
var ErrDraining = errors.New("serve: server is draining; not accepting new jobs")

// Config parameterizes a Server.
type Config struct {
	// Artifacts, when non-nil, is the shared artifact store every job
	// caches into — the substrate of cross-restart resume and of
	// cross-job cell reuse. A nil store disables persistence.
	Artifacts *artifact.Store
	// Metrics, when non-nil, receives the serve.* counters. Per-job
	// simulation metrics live on each job's own registry, not here, so
	// concurrent jobs never mix counts.
	Metrics *obs.Registry
	// Clock feeds the per-job registries' phase timers (nil: phases
	// record zero durations; all counters still work).
	Clock obs.Clock
	// MaxConcurrent bounds concurrently executing jobs (the simulation
	// inside each job is already parallel); 0 means 1.
	MaxConcurrent int
	// SnapshotEvery is the progress/snapshot event period (0: 2s).
	SnapshotEvery time.Duration
	// BaseContext roots every job's run context (nil: Background). Job
	// contexts are detached from any request — a client disconnect
	// never cancels shared work.
	BaseContext context.Context
}

// Server owns the job table and the HTTP API over it. Jobs are
// content-addressed by their spec (Spec.JobID), which is what makes
// submission idempotent: concurrent identical submissions — or the same
// curl re-run after a restart against a warm artifact store — share one
// computation.
type Server struct {
	cfg   Config
	base  context.Context
	clock obs.Clock
	mux   *http.ServeMux
	sched *fairSched

	mu       sync.Mutex
	jobs     map[string]*Job // by job ID (latest attempt wins)
	byKey    map[string]*Job // by canonical spec key
	designs  map[uint64]*sharedDesign
	draining bool
	// newDesign builds a seed's substrate (core.NewDesign; tests
	// substitute it to count, fail or panic builds).
	newDesign func(seed uint64) (*core.Design, error)

	drainCh chan struct{}
	wg      sync.WaitGroup
	sink    guard.Sink

	mSubmitted, mDeduped, mCompleted, mFailed, mCanceled, mRejected *obs.Counter
}

// New builds a server. Call Handler for its http.Handler, Drain on the
// first shutdown signal, and Wait before exiting.
func New(cfg Config) *Server {
	workers := cfg.MaxConcurrent
	if workers <= 0 {
		workers = 1
	}
	base := cfg.BaseContext
	if base == nil {
		base = context.Background()
	}
	s := &Server{
		cfg:        cfg,
		base:       base,
		clock:      cfg.Clock,
		sched:      newFairSched(workers),
		jobs:       make(map[string]*Job),
		byKey:      make(map[string]*Job),
		designs:    make(map[uint64]*sharedDesign),
		newDesign:  core.NewDesign,
		drainCh:    make(chan struct{}),
		mSubmitted: cfg.Metrics.Counter(MetricJobsSubmitted),
		mDeduped:   cfg.Metrics.Counter(MetricJobsDeduped),
		mCompleted: cfg.Metrics.Counter(MetricJobsCompleted),
		mFailed:    cfg.Metrics.Counter(MetricJobsFailed),
		mCanceled:  cfg.Metrics.Counter(MetricJobsCanceled),
		mRejected:  cfg.Metrics.Counter(MetricJobsRejected),
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// SubmitAs accepts a validated spec, returning the job handling it and
// whether the submission joined an existing one. Identical in-flight or
// completed specs dedupe onto the live job; a failed or canceled job is
// retried with a fresh attempt under the same content-addressed ID.
//
// The client is the unit of the run-slot fairness scheduler: when jobs
// queue behind MaxConcurrent, free slots rotate round-robin across
// clients instead of draining one client's backlog first. The client
// string is advisory (any stable identifier works; the HTTP layer uses a
// header or the peer address) and never affects job identity or results
// — only queueing order.
func (s *Server) SubmitAs(sp Spec, client string) (*Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.mRejected.Inc()
		return nil, false, ErrDraining
	}
	key := sp.Key()
	if j, ok := s.byKey[key]; ok {
		st := j.State()
		if st != StateFailed && st != StateCanceled {
			s.mDeduped.Inc()
			return j, true, nil
		}
	}
	j := newJob(sp, obs.NewRegistry(s.clock))
	s.jobs[j.ID] = j
	s.byKey[key] = j
	s.mSubmitted.Inc()
	sd := s.holdDesign(sp)
	guard.Go(&s.wg, &s.sink, "serve job "+j.ID, func() error {
		defer s.releaseDesign(sd)
		s.runJob(j, client, sd)
		return nil
	})
	return j, false, nil
}

// sharedDesign is one seed's substrate and its memos, shared by every
// admitted (queued or running) job with that design seed. The server
// drops it when the last of them returns, so an idle server pins no
// design.
type sharedDesign struct {
	seed uint64
	refs int // admitted jobs holding it; guarded by Server.mu

	mu sync.Mutex   // serializes the build
	d  *core.Design // nil until a build succeeds
}

// holdDesign counts a newly admitted job against its design seed's
// shared entry, creating the entry on first use. Called with s.mu held.
// The build waits until a holder runs (get), so a queued job costs
// nothing but the count.
func (s *Server) holdDesign(sp Spec) *sharedDesign {
	_, cfg, _ := sp.Effective() // an invalid spec fails in execute; it still holds an entry
	seed := core.DesignSeed(cfg)
	sd := s.designs[seed]
	if sd == nil {
		sd = &sharedDesign{seed: seed}
		s.designs[seed] = sd
	}
	sd.refs++
	return sd
}

// releaseDesign drops a finished job's hold on its seed's entry, and the
// entry itself with its last hold.
func (s *Server) releaseDesign(sd *sharedDesign) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sd.refs--; sd.refs == 0 {
		delete(s.designs, sd.seed)
	}
}

// get returns the shared design, building it with build if no holder
// has yet. A build that fails or panics leaves nothing behind, so the
// next holder retries it.
func (sd *sharedDesign) get(build func(seed uint64) (*core.Design, error)) (*core.Design, error) {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if sd.d == nil {
		d, err := build(sd.seed)
		if err != nil {
			return nil, err
		}
		sd.d = d
	}
	return sd.d, nil
}

// Job looks a job up by ID.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs returns every job, sorted by ID.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain begins a graceful shutdown: new submissions are rejected,
// queued jobs are canceled, and running jobs stop dispatching new cells
// while in-flight cells finish and land in the artifact cache — the
// serving-layer face of the CLI's first-SIGINT behavior. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	close(s.drainCh)
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
}

// Wait blocks until every job goroutine has finished (after Drain, that
// means every in-flight cell has been flushed to the cache).
func (s *Server) Wait() { s.wg.Wait() }

// runJob owns one job attempt end to end: slot acquisition, the shared
// substrate, suite run, CSV slurp, terminal state. It deliberately takes no
// context parameter — the job's context is rooted in the server's
// BaseContext (plus the spec's own max_duration), never in a request,
// so a disconnecting client cannot cancel work other clients share.
func (s *Server) runJob(j *Job, client string, sd *sharedDesign) {
	if !s.sched.Acquire(client, s.drainCh) {
		s.mCanceled.Inc()
		j.finish(StateCanceled, "server draining before job start", nil, nil, nil)
		return
	}
	defer s.sched.Release()
	if j.Canceled() {
		s.mCanceled.Inc()
		j.finish(StateCanceled, "canceled before start", nil, nil, nil)
		return
	}
	err := guard.Recovered("serve job "+j.ID, func() error { return s.execute(j, sd) })
	switch {
	case err == nil:
		s.mCompleted.Inc()
	case experiments.IsInterrupt(err):
		s.mCanceled.Inc()
		j.finish(StateCanceled, err.Error(), nil, nil, nil)
	default:
		s.mFailed.Inc()
		j.finish(StateFailed, err.Error(), nil, nil, nil)
	}
}

// execute runs the job's suite over its seed's shared design and, on
// success, moves it to Done with the deterministic report and CSV
// exports attached.
func (s *Server) execute(j *Job, sd *sharedDesign) error {
	opts, cfg, err := j.Spec.Effective()
	if err != nil {
		return err
	}
	cfg.Artifacts = s.cfg.Artifacts
	cfg.Metrics = j.reg
	maxDur, err := j.Spec.Budget()
	if err != nil {
		return err
	}
	ctx := s.base
	if maxDur > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, maxDur)
		defer cancel()
	}
	d, err := sd.get(s.newDesign)
	if err != nil {
		return err
	}
	f, err := core.NewOn(d, cfg)
	if err != nil {
		return err
	}
	env := experiments.NewEnvContext(ctx, f, opts)
	if !j.attach(env) {
		return experiments.ErrDrained
	}

	// Periodic progress + obs-snapshot events while the suite runs.
	// Event content is observational only; the determinism contract
	// covers the /result bytes, not the event stream.
	every := s.cfg.SnapshotEvery
	if every <= 0 {
		every = 2 * time.Second
	}
	stop := make(chan struct{})
	var tickWG sync.WaitGroup
	guard.Go(&tickWG, &s.sink, "serve progress "+j.ID, func() error {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return nil
			case <-tick.C:
				p := env.Progress()
				j.post(Event{Type: "progress",
					CellsDone: p.CellsDone, CellsTotal: p.CellsTotal, CellsCached: p.CellsCached})
				j.post(Event{Type: "snapshot", Snapshot: json.RawMessage(j.reg.Snapshot().JSON())})
			}
		}
	})
	defer func() {
		close(stop)
		tickWG.Wait()
	}()

	csvDir, err := os.MkdirTemp("", "teva-serve-csv-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(csvDir)

	var report bytes.Buffer
	suiteErr := experiments.RunSuite(env, experiments.SuiteConfig{
		Experiments: j.Spec.Experiments,
		CornerSpec:  j.Spec.Corners,
		CSVDir:      csvDir,
		OnStart: func(name string) {
			j.post(Event{Type: "start", Experiment: name})
		},
		OnExperiment: func(name string, err error) {
			ev := Event{Type: "experiment", Experiment: name}
			if err != nil {
				ev.Error = err.Error()
			}
			j.post(ev)
		},
	}, &report)
	if suiteErr != nil {
		return suiteErr
	}
	csv, names, err := slurpCSVs(csvDir)
	if err != nil {
		return err
	}
	p := env.Progress()
	j.post(Event{Type: "progress",
		CellsDone: p.CellsDone, CellsTotal: p.CellsTotal, CellsCached: p.CellsCached})
	j.post(Event{Type: "snapshot", Snapshot: json.RawMessage(j.reg.Snapshot().JSON())})
	j.finish(StateDone, "", report.Bytes(), csv, names)
	return nil
}

// slurpCSVs loads every CSV the suite exported into memory, names in
// the (sorted) directory order, so the job outlives its scratch dir.
func slurpCSVs(dir string) (map[string][]byte, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	csv := make(map[string][]byte, len(entries))
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, nil, err
		}
		csv[e.Name()] = data
		names = append(names, e.Name())
	}
	return csv, names, nil
}
