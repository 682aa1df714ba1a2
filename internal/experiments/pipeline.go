package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"teva/internal/artifact"
	"teva/internal/dta"
	"teva/internal/fpu"
	"teva/internal/guard"
	"teva/internal/obs"
)

// Metric names published by the experiment pipeline. A memo "hit" is a
// do() call that found an existing entry (the single-flight dedup saved a
// model build or campaign cell); a "miss" created the entry. Panics
// recovered counts worker panics the memo barrier converted into labeled
// per-cell errors; cells aborted counts matrix cells that ended in an
// error instead of a result.
const (
	MetricMemoHits        = "experiments.memo_hits"
	MetricMemoMisses      = "experiments.memo_misses"
	MetricPanicsRecovered = "experiments.panics_recovered"
	MetricCellsAborted    = "experiments.cells_aborted"
)

// ErrDrained reports that a soft drain request (first SIGINT) stopped the
// matrix build before every cell was dispatched. The cells that finished
// were cached as usual, so a re-run resumes from where the drain cut off.
var ErrDrained = errors.New("experiments: run drained before completing the matrix")

// memo is a generic single-flight lazy map: the first caller of a key
// computes the value while concurrent callers of the same key block until
// it is ready, so the parallel experiment pipeline never duplicates a
// model build, trace capture, or campaign cell. Values (and errors) are
// retained for the life of the Env. A compute that panics is converted by
// the guard barrier into an error labeled with the memo key (the cell
// identity), so one poisoned cell reports itself instead of killing the
// process — and instead of leaving waiters of the same key deadlocked on
// a half-initialized entry.
type memo[V any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[V]
	// hits/misses/panics, when non-nil, tally do() lookups and recovered
	// compute panics on the Env's registry.
	hits, misses, panics *obs.Counter
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

func newMemo[V any]() *memo[V] {
	return &memo[V]{entries: make(map[string]*memoEntry[V])}
}

// newMemoObs is newMemo with hit/miss counters attached (nil counters are
// valid no-ops, so a metrics-free Env costs nothing extra).
func newMemoObs[V any](m *obs.Registry) *memo[V] {
	mm := newMemo[V]()
	mm.hits = m.Counter(MetricMemoHits)
	mm.misses = m.Counter(MetricMemoMisses)
	mm.panics = m.Counter(MetricPanicsRecovered)
	return mm
}

// do returns the memoized value for key, computing it with fn exactly
// once across all goroutines. A panicking fn is recorded as the entry's
// error (a *guard.PanicError carrying the key and stack), never re-raised.
func (m *memo[V]) do(key string, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		e = &memoEntry[V]{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	if ok {
		m.hits.Inc()
	} else {
		m.misses.Inc()
	}
	e.once.Do(func() {
		e.err = guard.Recovered(key, func() error {
			var err error
			e.val, err = fn()
			return err
		})
		if guard.IsPanic(e.err) {
			m.panics.Inc()
		}
	})
	return e.val, e.err
}

// forEachLimit runs fn for every index in [0, n) on at most workers
// goroutines, with the failure semantics the matrix build needs:
//
//   - Fail fast: the first hard error cancels the inner context and stops
//     dispatch, so a 1000-cell matrix with a broken cell #3 does not burn
//     hours finishing the other 997 before reporting.
//   - Panic isolation: an error that is a recovered panic
//     (guard.IsPanic) marks its cell poisoned but does NOT abort the
//     rest — one bad cell is reported by name while the matrix completes.
//   - Drain: a closed drain channel stops dispatching new tasks but lets
//     in-flight ones finish (and be cached); the result then includes
//     ErrDrained.
//   - All failures are returned together via errors.Join; cancellation
//     echoes from in-flight tasks aborted by the fail-fast are filtered
//     out so the join names root causes only.
func forEachLimit(ctx context.Context, drain <-chan struct{}, workers, n int, fn func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		drained atomic.Bool
		sink    guard.Sink
	)
	draining := func() bool {
		if drain == nil {
			return false
		}
		select {
		case <-drain:
			drained.Store(true)
			return true
		default:
			return false
		}
	}
	for w := 0; w < workers; w++ {
		guard.Go(&wg, &sink, fmt.Sprintf("pipeline worker %d", w), func() error {
			for {
				if inner.Err() != nil || draining() {
					return nil
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return nil
				}
				err := fn(inner, i)
				switch {
				case err == nil:
				case guard.IsPanic(err):
					sink.Add(err)
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					// An in-flight task aborted by the fail-fast cancel (or
					// by the caller's deadline); the root cause is already
					// in the sink or is ctx's own error, reported below.
				default:
					sink.Add(err)
					cancel()
				}
			}
		})
	}
	wg.Wait()
	var errs []error
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	if err := sink.Join(); err != nil {
		errs = append(errs, err)
	}
	if drained.Load() {
		errs = append(errs, ErrDrained)
	}
	return errors.Join(errs...)
}

// workers returns the pipeline's fan-out width.
func (e *Env) workers() int {
	if e.F.Cfg.Workers > 0 {
		return e.F.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Progress is a point-in-time snapshot of the campaign matrix build, for
// the CLI's periodic -progress reporting.
type Progress struct {
	// CellsDone counts campaign cells materialized so far (computed or
	// reloaded) out of CellsTotal planned by RunCampaigns.
	CellsDone, CellsTotal int64
	// CellsCached counts the cells that were reloaded from the artifact
	// store instead of re-run.
	CellsCached int64
	// Cache is the artifact store's counters (DTA summaries included).
	Cache artifact.Stats
}

// Progress returns the current matrix-build counters.
func (e *Env) Progress() Progress {
	return Progress{
		CellsDone:   e.cellsDone.Load(),
		CellsTotal:  e.cellsTotal.Load(),
		CellsCached: e.cellsCached.Load(),
		Cache:       e.F.Cfg.Artifacts.Stats(),
	}
}

// cfgTag canonically encodes every framework/option setting that shapes
// model development, so artifacts from different configurations never
// alias in a shared cache directory.
func (e *Env) cfgTag() string {
	c := e.F.Cfg
	return fmt.Sprintf("scale=%s,ro=%d,wo=%d,da=%d,exact=%v,tf=%v",
		e.Opts.Scale, c.RandomOperands, c.WorkloadOperands, c.DASample, c.Timing.Exact(),
		c.TimeoutFactor)
}

// cachedSummary memoizes (in-process and, when a store is configured,
// on-disk) one ad-hoc DTA characterization stream: the Figure 6
// convergence draws, the Section VI stress corners, the validation
// re-measurements, the history ablation, and the process-variation dies
// all flow through here, so a re-run with the same seed reloads them
// instead of re-simulating. The tag must uniquely name the stream's
// provenance (which rng draw, which die, ...); compute performs the
// actual analysis on a miss. A compute error (a canceled Env) is returned
// and nothing is cached, so a truncated stream never reaches the store.
func (e *Env) cachedSummary(tag string, op fpu.Op, scale float64, samples int, compute func() (*dta.Summary, error)) (*dta.Summary, error) {
	key := fmt.Sprintf("%s|%s|%v|%d", tag, op, scale, samples)
	return e.streams.do(key, func() (*dta.Summary, error) {
		ak := artifact.SummaryKey(tag+","+e.cfgTag(), op.String(), scale,
			e.F.Cfg.Seed, samples, e.F.Cfg.Timing.Exact())
		sum, _, err := loadOrCompute(e, ak, compute)
		return sum, err
	})
}

// loadOrCompute returns the artifact stored under k, or computes it and
// stores the result; hit reports a reload. A compute error (a canceled
// Env) is returned and nothing is stored, so the store only ever sees
// complete results. Write failures are non-fatal (the value is recomputed
// next run): the store counts them on artifact.write_errors and the Env
// warns once.
func loadOrCompute[T any](e *Env, k artifact.Key, compute func() (T, error)) (v T, hit bool, err error) {
	store := e.F.Cfg.Artifacts
	if store.Load(k, &v) {
		return v, true, nil
	}
	if v, err = compute(); err != nil {
		var zero T
		return zero, false, err
	}
	e.noteSaveError(store.Save(k, v))
	return v, false, nil
}

// summarize is cachedSummary's usual compute: one DTA stream under the
// Env's context with the framework's engine and worker count. Metrics stay
// off, so these ad-hoc streams do not count as characterization work.
func (e *Env) summarize(f *fpu.FPU, op fpu.Op, scale float64, pairs []dta.Pair) (*dta.Summary, error) {
	recs, err := dta.AnalyzeStream(e.ctx, f, op, scale, e.F.Cfg.Timing, dta.Outcome, pairs, e.F.Cfg.Workers, nil)
	if err != nil {
		return nil, err
	}
	return dta.Summarize(op, recs), nil
}
