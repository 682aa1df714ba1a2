// Package obs is TEVA's dependency-free observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms), phase-scoped
// timers, and a snapshot API whose JSON and Prometheus-text renderings
// are byte-deterministic.
//
// The design is constrained by the repo's determinism contract
// (DESIGN.md, "Determinism invariants and teva-vet"):
//
//   - No wall-clock reads. Timers take their readings from a Clock
//     injected at registry construction; simulation packages receive an
//     already-constructed registry, the cmd/ entry points (exempt from
//     detflow's clock rule) supply the real monotonic clock, and tests
//     supply a fake. A nil Clock is valid and makes every phase report a
//     zero duration, so instrumented code paths stay byte-reproducible
//     under test without stubbing.
//   - Metric values must be order-independent under concurrency. Counters
//     and histograms accumulate integers with atomics (commutative, so
//     worker scheduling cannot change a snapshot); histograms carry no
//     float sum field, only bucket counts, for the same reason.
//   - Renderings sort every key and format floats with
//     strconv.FormatFloat(v, 'g', -1, 64), so two snapshots of equal
//     state are byte-identical.
//
// Hot paths hold a *Counter (one atomic add per event); the registry map
// lookup happens only at instrumentation setup. All methods are safe on
// nil receivers: a nil *Registry hands out nil instruments whose methods
// are no-ops, so instrumented packages need no conditionals when metrics
// are disabled (mirroring the nil *artifact.Store contract).
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Clock supplies monotonic time in nanoseconds for phase timers. The
// origin is arbitrary (only differences are used). cmd/ binaries pass a
// closure over time.Since; tests pass a fake or nil.
type Clock func() int64

// NameRE is the metric-name contract: names are lowercase dotted paths
// ("campaign.injections", "artifact.hits"). The obsnames analyzer
// enforces it statically at every registration site; the registry
// enforces it again at runtime and panics on violation, because an
// invalid name would destabilize the Prometheus rendering.
var NameRE = regexp.MustCompile(`^[a-z][a-z0-9_.]*$`)

// Registry owns a set of named metrics and phase timers.
type Registry struct {
	clock Clock

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	phases   map[string]*phaseStat
}

// phaseStat accumulates one phase path's completions.
type phaseStat struct {
	count atomic.Int64
	nanos atomic.Int64
}

// NewRegistry returns an empty registry. A nil clock disables duration
// measurement (phases record counts with zero nanos).
func NewRegistry(clock Clock) *Registry {
	return &Registry{
		clock:    clock,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		phases:   make(map[string]*phaseStat),
	}
}

// checkName panics on a name the obsnames contract rejects.
func checkName(kind, name string) {
	if !NameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid %s name %q (want %s)", kind, name, NameRE))
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; no-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns (creating once) the named counter. Returns nil — a
// valid no-op counter — on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	checkName("counter", name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge is a settable integer metric. Because last-write-wins is
// scheduling-dependent, gauges are for values set from one goroutine
// (configuration echoes, end-of-run totals), not for racing workers —
// use counters there.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value; no-op on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the value by delta; no-op on nil.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Gauge returns (creating once) the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	checkName("gauge", name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with v <= Bounds[i] (and above Bounds[i-1]); one
// implicit overflow bucket catches the rest. There is deliberately no
// sum field: a float sum's value would depend on accumulation order
// under concurrency, breaking snapshot determinism.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
}

// Observe records one observation; no-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
}

// Total returns the observation count (0 for nil).
func (h *Histogram) Total() int64 {
	if h == nil {
		return 0
	}
	var t int64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}

// Histogram returns (creating once) the named histogram with the given
// strictly increasing upper bounds; nil on a nil registry. Re-registering
// an existing name with different bounds panics — the first registration
// fixes the schema.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	checkName("histogram", name)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
		return h
	}
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	for i := range bounds {
		if h.bounds[i] != bounds[i] { //teva:allow floateq -- schema identity check, bounds are registration constants
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
	}
	return h
}

// Span is one running phase timer. Ending it accumulates the elapsed
// clock time under its path; re-entering the same path accumulates into
// the same slot. Spans nest by deriving children, giving "/"-joined
// paths ("exp/fig9/campaigns").
type Span struct {
	r     *Registry
	path  string
	start int64
}

// now reads the registry clock (0 without one).
func (r *Registry) now() int64 {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock()
}

// Phase starts a timer for the named phase. Phase paths are "/"-joined
// lowercase segments; unlike metric names they may be derived at run
// time (the set of phases a run executes is itself deterministic given
// the flags). Nil registries return a nil Span whose methods are no-ops.
func (r *Registry) Phase(path string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, path: path, start: r.now()}
}

// Phase derives a nested child span ("parent/child").
func (s *Span) Phase(sub string) *Span {
	if s == nil {
		return nil
	}
	return s.r.Phase(s.path + "/" + sub)
}

// End stops the span, accumulating its duration; no-op on nil. Ending a
// span twice double-counts; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	elapsed := s.r.now() - s.start
	s.r.mu.Lock()
	st, ok := s.r.phases[s.path]
	if !ok {
		st = &phaseStat{}
		s.r.phases[s.path] = st
	}
	s.r.mu.Unlock()
	st.count.Add(1)
	st.nanos.Add(elapsed)
}

// Time runs fn under a span — the common non-nested case.
func (r *Registry) Time(path string, fn func()) {
	sp := r.Phase(path)
	fn()
	sp.End()
}
