package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"teva/internal/campaign"
	"teva/internal/core"
	"teva/internal/experiments"
	"teva/internal/obs"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// runWant executes a spec through the experiment library directly — the
// path the CLI takes — returning the report bytes and CSV exports the
// served job must reproduce exactly.
func runWant(t *testing.T, sp Spec) ([]byte, map[string][]byte) {
	t.Helper()
	opts, cfg, err := sp.Effective()
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv(f, opts)
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := experiments.RunSuite(env, experiments.SuiteConfig{
		Experiments: sp.Experiments,
		CornerSpec:  sp.Corners,
		CSVDir:      dir,
	}, &buf); err != nil {
		t.Fatal(err)
	}
	csv, _, err := slurpCSVs(dir)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), csv
}

// submitSpec posts a raw spec body, returning the decoded submit
// response.
func submitSpec(t *testing.T, baseURL, body string, wantStatus int) submitBody {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("submit: status %d want %d (%s)", resp.StatusCode, wantStatus, data)
	}
	var sb submitBody
	if err := json.Unmarshal(data, &sb); err != nil {
		t.Fatalf("submit: bad body %q: %v", data, err)
	}
	return sb
}

// streamToEnd reads the job's NDJSON event stream until the terminal
// event, returning every event seen. The stream itself blocks until the
// job finishes, so this doubles as the wait primitive.
func streamToEnd(t *testing.T, baseURL, id string) []Event {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var evs []Event
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, data)
	}
	return data
}

// TestServeE2EFig7Parity is the tentpole contract test: the bytes a
// served job returns for a quick fig7 campaign are identical to what
// the CLI's suite runner prints for the same spec, and so are the CSV
// exports.
func TestServeE2EFig7Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (quick) campaign")
	}
	const body = `{"experiments":["fig7"],"quick":true}`
	sp, err := DecodeSpec(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, wantCSV := runWant(t, sp)

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sb := submitSpec(t, ts.URL, body, http.StatusAccepted)
	if sb.ID != sp.JobID() {
		t.Fatalf("job ID %s, want content address %s", sb.ID, sp.JobID())
	}
	if sb.Deduped {
		t.Fatal("first submission reported deduped")
	}
	evs := streamToEnd(t, ts.URL, sb.ID)
	var sawStart, sawExp bool
	for _, ev := range evs {
		if ev.Type == "start" && ev.Experiment == "fig7" {
			sawStart = true
		}
		if ev.Type == "experiment" && ev.Experiment == "fig7" && ev.Error == "" {
			sawExp = true
		}
	}
	if !sawStart || !sawExp {
		t.Fatalf("event stream missing fig7 start/experiment events: %+v", evs)
	}
	if last := evs[len(evs)-1]; last.Type != "done" {
		t.Fatalf("final event %+v, want done", last)
	}

	got := fetch(t, ts.URL+"/v1/jobs/"+sb.ID+"/result")
	if !bytes.Equal(got, want) {
		t.Fatalf("served result differs from library run:\n--- served (%d bytes)\n%s\n--- want (%d bytes)\n%s",
			len(got), got, len(want), want)
	}

	var list struct {
		CSV []string `json:"csv"`
	}
	if err := json.Unmarshal(fetch(t, ts.URL+"/v1/jobs/"+sb.ID+"/csv"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.CSV) != len(wantCSV) {
		t.Fatalf("served %d CSVs %v, want %d", len(list.CSV), list.CSV, len(wantCSV))
	}
	for _, name := range list.CSV {
		gotCSV := fetch(t, ts.URL+"/v1/jobs/"+sb.ID+"/csv/"+name)
		if !bytes.Equal(gotCSV, wantCSV[name]) {
			t.Fatalf("CSV %s differs:\n--- served\n%s\n--- want\n%s", name, gotCSV, wantCSV[name])
		}
	}
}

// TestServeDedupeSingleFlight proves the single-flight contract: N
// concurrent submissions of the same spec share one job, the matrix is
// simulated exactly once (counted by the job's own campaign.cells
// counter), and every client downloads identical bytes.
func TestServeDedupeSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (quick) campaign")
	}
	const body = `{"experiments":["fig9"],"quick":true,"runs":2}`
	reg := obs.NewRegistry(nil)
	s := New(Config{Metrics: reg, MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	results := make([]submitBody, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d (%s)", i, resp.StatusCode, data)
				return
			}
			if err := json.Unmarshal(data, &results[i]); err != nil {
				t.Errorf("client %d: bad body %q: %v", i, data, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var created int
	for i, sb := range results {
		if sb.ID != results[0].ID {
			t.Fatalf("client %d got job %s, client 0 got %s", i, sb.ID, results[0].ID)
		}
		if !sb.Deduped {
			created++
		}
	}
	if created != 1 {
		t.Fatalf("%d submissions created jobs, want exactly 1", created)
	}

	streamToEnd(t, ts.URL, results[0].ID)
	j := s.Job(results[0].ID)
	if st := j.State(); st != StateDone {
		t.Fatalf("job state %s (%s)", st, j.Err())
	}

	// Exactly one simulation per cell: the shared job's registry counted
	// each matrix cell once, even with 8 clients and 2 job slots.
	ws, err := workloads.All(workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := int64(len(ws) * len(experiments.ModelKinds()) * len(vscale.PaperLevels()))
	if cells := j.reg.Snapshot().Counter(campaign.MetricCells); cells != wantCells {
		t.Fatalf("campaign.cells = %d, want %d (one simulation per cell)", cells, wantCells)
	}

	// Every client reads identical bytes.
	first := fetch(t, ts.URL+"/v1/jobs/"+results[0].ID+"/result")
	if len(first) == 0 {
		t.Fatal("empty result")
	}
	for i := 1; i < clients; i++ {
		if got := fetch(t, ts.URL+"/v1/jobs/"+results[0].ID+"/result"); !bytes.Equal(got, first) {
			t.Fatalf("download %d differs from first", i)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counter(MetricJobsSubmitted); got != 1 {
		t.Fatalf("jobs_submitted = %d, want 1", got)
	}
	if got := snap.Counter(MetricJobsDeduped); got != int64(clients-1) {
		t.Fatalf("jobs_deduped = %d, want %d", got, clients-1)
	}

	// Resubmitting after completion still dedupes onto the finished job:
	// no new simulation, cells counter unchanged.
	sb := submitSpec(t, ts.URL, body, http.StatusOK)
	if !sb.Deduped || sb.ID != results[0].ID {
		t.Fatalf("post-completion resubmit: %+v", sb)
	}
	if cells := j.reg.Snapshot().Counter(campaign.MetricCells); cells != wantCells {
		t.Fatalf("resubmit re-simulated: campaign.cells = %d, want %d", cells, wantCells)
	}
	if got := reg.Snapshot().Counter(MetricJobsSubmitted); got != 1 {
		t.Fatalf("jobs_submitted after resubmit = %d, want 1", got)
	}
}

// TestFinishedJobReleasesEnv checks that a finished job drops its
// experiment environment (and with it the framework, models and golden
// runs) while its progress endpoint still reports the final counters.
func TestFinishedJobReleasesEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (quick) campaign")
	}
	const body = `{"experiments":["fig9"],"quick":true,"runs":1}`
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sb := submitSpec(t, ts.URL, body, http.StatusAccepted)
	streamToEnd(t, ts.URL, sb.ID)
	j := s.Job(sb.ID)
	if st := j.State(); st != StateDone {
		t.Fatalf("job state %s (%s)", st, j.Err())
	}
	j.mu.Lock()
	env := j.env
	j.mu.Unlock()
	if env != nil {
		t.Fatal("finished job still holds its environment")
	}
	p, ok := j.Progress()
	if !ok || p.CellsTotal == 0 || p.CellsDone != p.CellsTotal {
		t.Fatalf("finished job progress %+v (ok %v), want all cells done", p, ok)
	}
	m := getJSON(t, ts.URL+"/v1/jobs/"+sb.ID, http.StatusOK)
	prog, _ := m["progress"].(map[string]any)
	if prog == nil || prog["cells_done"] != float64(p.CellsDone) {
		t.Fatalf("status body progress %v, want cells_done %d", m["progress"], p.CellsDone)
	}
}
