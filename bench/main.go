// Command bench is the repository benchmark. It drives the library from
// outside, through the same public calls the CLIs use, and measures four
// workloads: single-injection campaigns, stochastic campaigns, model
// development (DTA characterization) and warm serving.
//
// Usage (from the repository root, through bench/run.sh, which builds it):
//
//	bash bench/run.sh --workload campaign-sfi --seed 7 --seconds 10 --trace 0
//
// Every run sets up its workload several times (the median is setup_s),
// then runs whole passes of the timed phase for --seconds with tracing
// off. With --trace 1 it sets up once with spans on, pairs untraced and
// traced steps of the same work, and reports the per-layer metrics
// instead. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See bench/README.md for the workloads, the metrics and the layer each
// one belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"teva/internal/obs"
	"teva/internal/workloads"
)

// sizing holds every knob that sets how much work one unit of a workload
// does. fullSize is the benchmark; tests use a smaller one.
type sizing struct {
	scale       workloads.Scale // benchmark inputs for campaigns and model development
	randomOps   int             // DTA operands per op for the IA and DA models
	workloadOps int             // DTA operands per op and benchmark for the WA model
	sfiRuns     int             // injected runs per single-injection cell
	stochRuns   int             // injected runs per stochastic cell
	setups      int             // set-ups per run behind setup_s
	serveSetups int             // the same for serve-warm, whose set-up fills a cold store
	serveExps   []string        // experiments served jobs draw from (nil: all of them)
}

var fullSize = sizing{
	scale:       workloads.Small,
	randomOps:   4000,
	workloadOps: 2000,
	sfiRuns:     6,
	stochRuns:   8,
	setups:      3,
	serveSetups: 2,
}

// options configure one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     sizing
	dir      string // scratch directory for artifact stores
	log      io.Writer
}

// opResult is one unit of measured work: a campaign cell, a DTA summary or a
// served job. key names what it computed, so repeats of the same unit
// must produce the same digest.
type opResult struct {
	key    string
	secs   float64
	digest string
	err    error
}

// tally collects the steps of one kind, untraced or traced, of a run.
type tally struct {
	ops     []opResult
	work    float64          // injected runs, DTA instructions or served jobs
	elapsed float64          // seconds spent in the steps
	steps   []interval       // recorder time range of each traced step
	counts  map[string]int64 // library counters the steps added
	alloc   uint64           // bytes the steps allocated
	gcs     uint32           // collections during the steps
}

// state is a set-up workload, ready to measure.
type state interface {
	// step runs step k of the timed phase (a block of campaign cells, a
	// model-development pass or a serve round), recording spans on rec
	// when it is not nil. Steps with the same k do the same work.
	step(rec *recorder, t *tally, k int) error
	// passSteps is how many steps make one pass over the workload's
	// units; a timed phase always ends on a pass boundary.
	passSteps() int
	// counters snapshots the workload's metrics registry.
	counters() obs.Snapshot
	// check verifies outputs beyond the per-op digests, after the timed
	// phase.
	check(rec *recorder, phases []*tally) error
	// layers adds the workload's per-layer metrics after a traced run.
	layers(spans []span, phases []*tally, m metrics)
	close()
}

// workload builds a state. The recorder is non-nil only for the traced
// set-up of a --trace 1 run.
type workload struct {
	name  string
	setup func(o *options, rec *recorder) (state, error)
}

var allWorkloads = []workload{
	{"campaign-sfi", func(o *options, rec *recorder) (state, error) { return setupCampaign(o, rec, true) }},
	{"campaign-stochastic", func(o *options, rec *recorder) (state, error) { return setupCampaign(o, rec, false) }},
	{"model-dev", setupModelDev},
	{"serve-warm", setupServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "campaign-sfi, campaign-stochastic, model-dev or serve-warm")
	seed := fs.Uint64("seed", 0xF00D, "seed for the model-dev and served substrates, the injection streams and the job generator")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "bench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// The serving layer stages CSV exports under the system temp dir;
	// keep them inside the checkout too.
	abs, err := filepath.Abs(dir)
	if err == nil {
		err = os.Setenv("TMPDIR", abs)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o := &options{workload: w.name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		size: fullSize, dir: dir, log: stderr}
	run, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if rec := run.rec; rec != nil {
		if err := rec.write(filepath.Join(".bench_build", "spans-"+w.name+".json")); err != nil {
			fmt.Fprintln(stderr, "bench: writing spans:", err)
			return 1
		}
	}
	out, err := json.Marshal(run.res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range allWorkloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]value

func (m metrics) set(name, unit string, v float64) { m[name] = value{v, unit} }

// result is the benchmark's output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is a finished run: its output line, and for inspection the
// timed phases and, when traced, the recorder.
type outcome struct {
	res    *result
	phases []*tally
	rec    *recorder
}

// measure runs one workload end to end: set-up, timed phase(s), output
// checks, metrics.
func measure(w workload, o *options) (*outcome, error) {
	var rec *recorder
	setups := o.size.setups
	if w.name == "serve-warm" {
		setups = o.size.serveSetups
	}
	if o.trace {
		rec = newRecorder()
		setups = 1
	}
	var st state
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		st, err = w.setup(o, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		fmt.Fprintf(o.log, "bench: %s: set-up %d/%d took %.3f s\n", o.workload, i+1, setups, setupSecs[i])
	}
	defer st.close()

	// The timed phase runs whole passes until its time is up. A traced
	// run pairs each untraced step with a traced step of the same work,
	// in alternating order, for twice as long, so trace_overhead compares
	// steps measured side by side.
	plain := &tally{counts: map[string]int64{}}
	phases := []*tally{plain}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	more := func(k int, d time.Duration) bool { return time.Since(start) < d || k%st.passSteps() != 0 }
	var live float64
	if !o.trace {
		for k := 0; more(k, budget); k++ {
			if err := runStep(o.log, st, nil, plain, k); err != nil {
				return nil, err
			}
		}
		live = liveHeap()
	} else {
		traced := &tally{counts: map[string]int64{}}
		phases = append(phases, traced)
		for k := 0; more(k, 2*budget); k++ {
			pair := [2]*recorder{nil, rec}
			if k%2 == 1 { // alternate which goes first
				pair = [2]*recorder{rec, nil}
			}
			for _, r := range pair {
				t := plain
				if r != nil {
					t = traced
				}
				if err := runStep(o.log, st, r, t, k); err != nil {
					return nil, err
				}
			}
		}
	}
	m := metrics{}
	res := &result{Correct: true, Metrics: m}
	checkErr := errors.Join(checkDigests(o, phases), st.check(rec, phases))
	for i, t := range phases {
		fmt.Fprintf(o.log, "bench: %s: %s steps: %d ops, work %.0f in %.3f s (%.4g/s)\n",
			o.workload, []string{"untraced", "traced"}[i], len(t.ops), t.work, t.elapsed, t.work/t.elapsed)
	}
	for _, t := range phases {
		for _, p := range t.ops {
			res.Attempted++
			if p.err != nil {
				res.Failed++
				fmt.Fprintf(o.log, "bench: %s: %v\n", p.key, p.err)
			}
		}
	}
	if checkErr != nil {
		fmt.Fprintf(o.log, "bench: %s: output check failed: %v\n", o.workload, checkErr)
		res.Correct = false
		res.Failed = res.Attempted
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	if !o.trace {
		m.set("setup_s", "s", median(setupSecs))
		m.set("work_per_s", "1/s", plain.work/plain.elapsed)
		m.set("op_p50_ms", "ms", median(opMillis(plain)))
		m.set("live_mib", "MiB", live)
		return &outcome{res: res, phases: phases}, nil
	}
	traced := phases[1]
	m.set("trace_overhead", "ratio",
		(traced.elapsed/traced.work)/(plain.elapsed/plain.work)-1)
	spans := rec.snapshot()
	cov := coverage(spans, traced.steps)
	m.set("trace.coverage", "ratio", cov)
	if cov < 0.95 {
		res.Correct = false
		fmt.Fprintf(o.log, "bench: top-level spans cover %.1f%% of the traced steps, want >= 95%%\n", 100*cov)
	}
	m.set("go.alloc_mb", "MiB", float64(traced.alloc)/(1<<20))
	m.set("go.gc_cycles", "count", float64(traced.gcs))
	m.set("go.max_rss_mb", "MiB", maxRSSMiB())
	spanMetrics(spans, m)
	st.layers(spans, phases, m)
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, d.unit, 0)
		}
	}
	return &outcome{res: res, phases: phases, rec: rec}, nil
}

// checkDigests requires every repeat of an op to reproduce the first
// digest of its key, and, for recorded seeds, the recorded digest. For
// other seeds it prints the digests.
func checkDigests(o *options, phases []*tally) error {
	got := map[string]string{}
	var errs []error
	for _, t := range phases {
		for _, p := range t.ops {
			if p.err != nil || p.digest == "" {
				continue
			}
			if d, ok := got[p.key]; ok && d != p.digest {
				errs = append(errs, fmt.Errorf("%s: repeat gave digest %s, first run %s", p.key, p.digest, d))
			}
			got[p.key] = p.digest
		}
	}
	if len(got) == 0 {
		return errors.Join(errs...)
	}
	seedKey := fmt.Sprintf("%#x", o.seed)
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	want := exp[o.workload][seedKey]
	if want == nil {
		data, _ := json.Marshal(map[string]map[string]map[string]string{o.workload: {seedKey: got}})
		fmt.Fprintf(o.log, "bench: digests %s\n", data)
		return errors.Join(errs...)
	}
	for _, k := range sortedKeys(got) {
		if want[k] != got[k] {
			errs = append(errs, fmt.Errorf("%s: digest %s, expected.json has %q", k, got[k], want[k]))
		}
	}
	return errors.Join(errs...)
}

func opMillis(t *tally) []float64 {
	out := make([]float64, 0, len(t.ops))
	for _, p := range t.ops {
		out = append(out, 1000*p.secs)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// liveHeap returns the heap still reachable after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runStep runs step k into t, timing it and adding the library counters
// it moved; traced steps also record their time range and allocations.
func runStep(log io.Writer, st state, rec *recorder, t *tally, k int) error {
	before := st.counters()
	var ms0, ms1 runtime.MemStats
	var lo int64
	if rec != nil {
		runtime.ReadMemStats(&ms0)
		lo = rec.now()
	}
	t0, w0 := time.Now(), t.work
	err := st.step(rec, t, k)
	d := time.Since(t0).Seconds()
	t.elapsed += d
	fmt.Fprintf(log, "bench: step %d (traced %v): work %.0f in %.3f s\n", k, rec != nil, t.work-w0, d)
	if rec != nil {
		t.steps = append(t.steps, interval{lo, rec.now()})
		runtime.ReadMemStats(&ms1)
		t.alloc += ms1.TotalAlloc - ms0.TotalAlloc
		t.gcs += ms1.NumGC - ms0.NumGC
	}
	for _, c := range st.counters().Counters {
		t.counts[c.Name] += c.Value - before.Counter(c.Name)
	}
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
