package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"

	"teva/internal/workloads"
)

// smokeSize shrinks every workload so the whole suite runs in seconds.
var smokeSize = sizing{
	scale:       workloads.Tiny,
	randomOps:   400,
	workloadOps: 200,
	sfiRuns:     2,
	stochRuns:   2,
	setups:      1,
	serveSetups: 1,
	serveExps:   []string{"corners", "design", "table1"},
}

func smoke(t *testing.T, w workload, trace bool) *outcome {
	t.Helper()
	// A seed without recorded digests: those are for the full size.
	o := &options{workload: w.name, seed: 7, seconds: 0.3, trace: trace,
		size: smokeSize, dir: t.TempDir(), log: io.Discard}
	run, err := measure(w, o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !run.res.Correct || run.res.Failed != 0 || run.res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, run.res.Correct, run.res.Attempted, run.res.Failed)
	}
	return run
}

// benchmarkJSON is the part of BENCHMARK.json the program must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(allWorkloads))
	}
	for _, bw := range bj.Workloads {
		w, ok := findWorkload(bw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown", bw.Name)
		}
		for _, trace := range []bool{false, true} {
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			got := smoke(t, w, trace).res.Metrics
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", w.name, trace, len(got), len(want))
			}
			for _, d := range want {
				v, ok := got[d.Name]
				switch {
				case !metricName.MatchString(d.Name):
					t.Errorf("metric name %q is malformed", d.Name)
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.name, trace, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, d.Name, v.Unit, d.Unit)
				}
			}
		}
	}
}

// TestTracingDoesNotChangeResults runs the same units untraced and
// traced; checkDigests inside measure already fails the run on any
// difference, and this asserts the traced phase really repeated them.
func TestTracingDoesNotChangeResults(t *testing.T) {
	for _, name := range []string{"campaign-sfi", "model-dev"} {
		w, _ := findWorkload(name)
		run := smoke(t, w, true)
		digests := map[string]string{}
		for _, p := range run.phases[0].ops {
			digests[p.key] = p.digest
		}
		repeated := 0
		for _, p := range run.phases[1].ops {
			if d, ok := digests[p.key]; ok {
				repeated++
				if d != p.digest {
					t.Errorf("%s: %s traced digest %s, untraced %s", name, p.key, p.digest, d)
				}
			}
		}
		if repeated == 0 {
			t.Errorf("%s: the traced phase repeated none of the untraced units", name)
		}
	}
}

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps its sibling a
		{Name: "a.child", Start: 12, End: 15, Parent: 1},
		{Name: "after", Start: 120, End: 130, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{60, 17, 30, 3, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if c := coverage(spans, []interval{{0, 50}, {100, 150}}); c != 60.0/100 {
		t.Errorf("coverage = %v, want %v", c, 60.0/100)
	}
}

func TestBadArgumentsExitWithoutResult(t *testing.T) {
	var out bytes.Buffer
	if code := cli([]string{"--workload", "nope"}, &out, io.Discard); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
