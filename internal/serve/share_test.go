package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"teva/internal/core"
)

// buildLog records every design a server's builds produced.
type buildLog struct {
	mu      sync.Mutex
	calls   int
	designs []*core.Design
}

// hookBuilds makes s build designs through core.NewDesign, recording
// each; before, when non-nil, runs first with the build's 1-based call
// number and may block, fail the build or panic.
func hookBuilds(s *Server, before func(call int) error) *buildLog {
	l := &buildLog{}
	s.newDesign = func(seed uint64) (*core.Design, error) {
		l.mu.Lock()
		l.calls++
		call := l.calls
		l.mu.Unlock()
		if before != nil {
			if err := before(call); err != nil {
				return nil, err
			}
		}
		d, err := core.NewDesign(seed)
		if err == nil {
			l.mu.Lock()
			l.designs = append(l.designs, d)
			l.mu.Unlock()
		}
		return d, err
	}
	return l
}

// captures sums the trace captures of every recorded design.
func (l *buildLog) captures() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, d := range l.designs {
		n += d.Captures()
	}
	return n
}

// gate returns a build hook that holds every build until the returned
// open function is called, so a test can admit all its jobs before any
// of them gets a design.
func gate() (before func(int) error, open func()) {
	ch := make(chan struct{})
	var once sync.Once
	return func(int) error { <-ch; return nil }, func() { once.Do(func() { close(ch) }) }
}

// served is what a finished job handed back.
type served struct {
	state  State
	err    string
	result []byte
	csv    map[string][]byte
	snap   []byte
}

func decode(t *testing.T, body string) Spec {
	t.Helper()
	sp, err := DecodeSpec(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// admitAll submits every body to s before opening the build gate, waits
// for every job goroutine to return, and collects the jobs' outcomes in
// body order.
func admitAll(t *testing.T, s *Server, open func(), bodies []string) []served {
	t.Helper()
	jobs := make([]*Job, len(bodies))
	for i, b := range bodies {
		j, deduped, err := s.SubmitAs(decode(t, b), fmt.Sprintf("client%d", i%2))
		if err != nil || deduped {
			t.Fatalf("submit %s: deduped %v, err %v", b, deduped, err)
		}
		jobs[i] = j
	}
	open()
	s.Wait()
	out := make([]served, len(jobs))
	for i, j := range jobs {
		out[i] = collect(j)
	}
	return out
}

func collect(j *Job) served {
	<-j.Done()
	sv := served{state: j.State(), err: j.Err(), result: j.Result(), csv: map[string][]byte{}}
	for _, name := range j.CSVNames() {
		sv.csv[name] = j.CSV(name)
	}
	sv.snap = j.reg.Snapshot().JSON()
	return sv
}

// alone runs one spec on a fresh server of its own: the unshared result.
func alone(t *testing.T, body string) served {
	t.Helper()
	s := New(Config{})
	j, _, err := s.Submit(decode(t, body))
	if err != nil {
		t.Fatal(err)
	}
	s.Wait()
	return collect(j)
}

func heldDesigns(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.designs)
}

func sameServed(t *testing.T, label string, got, want served) {
	t.Helper()
	if got.state != StateDone || want.state != StateDone {
		t.Fatalf("%s: states %s (%s) and %s (%s), want done", label, got.state, got.err, want.state, want.err)
	}
	if !bytes.Equal(got.result, want.result) {
		t.Fatalf("%s: shared result differs from unshared:\n--- shared\n%s\n--- unshared\n%s", label, got.result, want.result)
	}
	if !reflect.DeepEqual(got.csv, want.csv) {
		t.Fatalf("%s: shared CSVs differ from unshared", label)
	}
	if !bytes.Equal(got.snap, want.snap) {
		t.Fatalf("%s: final metrics snapshot differs:\n--- shared\n%s\n--- unshared\n%s", label, got.snap, want.snap)
	}
}

// TestAdmittedJobsShareOneDesign: jobs admitted together with one seed
// build the design once and capture each workload trace once, get the
// bytes and metrics they would get alone, and leave nothing pinned.
func TestAdmittedJobsShareOneDesign(t *testing.T) {
	s := New(Config{})
	before, open := gate()
	builds := hookBuilds(s, before)
	bodies := []string{
		`{"experiments":["table2"],"quick":true,"seed":7}`,
		`{"experiments":["table2","design"],"quick":true,"seed":7}`,
		`{"experiments":["design","table2","table1"],"quick":true,"seed":7}`,
	}
	defer open()
	got := admitAll(t, s, func() {
		if n := heldDesigns(s); n != 1 {
			t.Errorf("3 admitted same-seed jobs hold %d shared entries, want 1", n)
		}
		open()
	}, bodies)
	if builds.calls != 1 {
		t.Fatalf("%d design builds for one seed, want 1", builds.calls)
	}
	if n, want := builds.captures(), int64(7); n != want {
		t.Fatalf("%d trace captures, want %d (each workload once)", n, want)
	}
	if n := heldDesigns(s); n != 0 {
		t.Fatalf("idle server holds %d shared designs, want 0", n)
	}
	for i, b := range bodies {
		sameServed(t, b, got[i], alone(t, b))
	}
}

// TestDistinctRunsDoNotShare: a different seed gets its own design, and
// a different workload scale or operand cap its own traces; every result
// equals the one a fresh server per job gives.
func TestDistinctRunsDoNotShare(t *testing.T) {
	s := New(Config{})
	before, open := gate()
	defer open()
	builds := hookBuilds(s, before)
	bodies := []string{
		`{"experiments":["table2"],"quick":true,"seed":1}`,
		`{"experiments":["table2"],"quick":true,"seed":2}`,
		// Same design as the first, larger workloads.
		`{"experiments":["table2"],"quick":true,"seed":1,"scale":"small"}`,
		// Same design and workloads as the first; the default preset's
		// WorkloadOperands (8000) raises the trace cap above quick's 4096.
		`{"experiments":["table2"],"seed":1,"scale":"tiny"}`,
	}
	got := admitAll(t, s, open, bodies)
	if builds.calls != 2 {
		t.Fatalf("%d design builds for 2 seeds, want 2", builds.calls)
	}
	if n, want := builds.captures(), int64(4*7); n != want {
		t.Fatalf("%d trace captures, want %d (no trace shared)", n, want)
	}
	if n := heldDesigns(s); n != 0 {
		t.Fatalf("idle server holds %d shared designs, want 0", n)
	}
	for i, b := range bodies {
		sameServed(t, b, got[i], alone(t, b))
	}
}

// TestConcurrentSharedJobsMatchSequential runs 8 same-seed jobs two at a
// time over one shared design (DTA, traces and the FPU's scratch caches
// all shared) and compares each with the same spec run sequentially, one
// job at a time, where no design outlives its job.
func TestConcurrentSharedJobsMatchSequential(t *testing.T) {
	bodies := []string{
		`{"experiments":["table2"],"quick":true,"seed":5}`,
		`{"experiments":["fig8"],"quick":true,"seed":5}`,
		`{"experiments":["fig6"],"quick":true,"seed":5}`,
		`{"experiments":["design"],"quick":true,"seed":5}`,
		`{"experiments":["table2","fig8"],"quick":true,"seed":5}`,
		`{"experiments":["fig6","table2"],"quick":true,"seed":5}`,
		`{"experiments":["design","fig8"],"quick":true,"seed":5}`,
		`{"experiments":["fig4"],"quick":true,"seed":5}`,
	}
	if testing.Short() {
		bodies = bodies[:4]
	}
	s := New(Config{MaxConcurrent: 2})
	before, open := gate()
	defer open()
	builds := hookBuilds(s, before)
	got := admitAll(t, s, open, bodies)
	if builds.calls != 1 {
		t.Fatalf("%d design builds for one seed, want 1", builds.calls)
	}

	seq := New(Config{})
	seqBuilds := hookBuilds(seq, nil)
	for i, b := range bodies {
		j, _, err := seq.Submit(decode(t, b))
		if err != nil {
			t.Fatal(err)
		}
		seq.Wait()
		sameServed(t, b, got[i], collect(j))
	}
	if seqBuilds.calls != len(bodies) {
		t.Fatalf("sequential jobs built %d designs, want one each (%d)", seqBuilds.calls, len(bodies))
	}
}

// TestFailedBuildIsNotShared: a design build that panics or fails fails
// only the job that ran it; the next admitted job of the seed builds
// again, and the job that gets a design serves the unshared bytes.
func TestFailedBuildIsNotShared(t *testing.T) {
	s := New(Config{})
	release := make(chan struct{})
	builds := hookBuilds(s, func(call int) error {
		<-release
		switch call {
		case 1:
			panic("injected build panic")
		case 2:
			return fmt.Errorf("injected build failure")
		}
		return nil
	})
	bodies := []string{
		`{"experiments":["table2"],"quick":true,"seed":9}`,
		`{"experiments":["design"],"quick":true,"seed":9}`,
		`{"experiments":["table1"],"quick":true,"seed":9}`,
	}
	got := admitAll(t, s, func() { close(release) }, bodies)
	if builds.calls != 3 {
		t.Fatalf("%d builds, want 3 (a failed build must not be kept)", builds.calls)
	}
	var panicked, failed, done int
	for i, sv := range got {
		switch {
		case sv.state == StateFailed && strings.Contains(sv.err, "injected build panic"):
			panicked++
		case sv.state == StateFailed && strings.Contains(sv.err, "injected build failure"):
			failed++
		case sv.state == StateDone:
			done++
			sameServed(t, bodies[i], sv, alone(t, bodies[i]))
		default:
			t.Fatalf("%s: state %s (%s)", bodies[i], sv.state, sv.err)
		}
	}
	if panicked != 1 || failed != 1 || done != 1 {
		t.Fatalf("panicked %d, failed %d, done %d; want 1 each", panicked, failed, done)
	}
	if n := heldDesigns(s); n != 0 {
		t.Fatalf("idle server holds %d shared designs, want 0", n)
	}
}
