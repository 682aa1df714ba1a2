package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"teva/internal/obs"
)

// testServer builds a server with a synthetic job injected straight
// into the tables, so handler semantics are testable without running a
// single simulation.
func testServer(t *testing.T, sp Spec) (*Server, *Job, *httptest.Server) {
	t.Helper()
	sp = canon(t, sp)
	s := New(Config{})
	j := newJob(sp, obs.NewRegistry(nil))
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.byKey[sp.Key()] = j
	s.mu.Unlock()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, j, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d want %d (%s)", url, resp.StatusCode, wantStatus, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
	return m
}

func TestHandlersUnknownJob(t *testing.T) {
	_, _, ts := testServer(t, Spec{Experiments: []string{"table1"}})
	for _, path := range []string{
		"/v1/jobs/nope", "/v1/jobs/nope/events", "/v1/jobs/nope/result",
		"/v1/jobs/nope/metrics", "/v1/jobs/nope/csv", "/v1/jobs/nope/csv/x.csv",
	} {
		m := getJSON(t, ts.URL+path, http.StatusNotFound)
		if m["error"] == "" {
			t.Fatalf("%s: missing error body", path)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/nope/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: status %d", resp.StatusCode)
	}
}

func TestHandlersBadSpec400(t *testing.T) {
	_, _, ts := testServer(t, Spec{Experiments: []string{"table1"}})
	for _, tc := range []struct{ body, wantErr string }{
		{`{"experiments": ["bogus"]}`, "bogus"},
		{`{"timing": "turbo"}`, "turbo"},
		{`{"timeout_factor": -3}`, "TimeoutFactor"},
		{`{nope`, "bad spec"},
		// The removed STA-screen fields and fast engine are named.
		{`{"sta_screen": true}`, "sta_screen"},
		{`{"screen_guardband": 1}`, "screen_guardband"},
		{`{"screen_validate": true}`, "screen_validate"},
		{`{"timing": "fast"}`, `\"fast\"`},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d want 400", tc.body, resp.StatusCode)
		}
		if !strings.Contains(string(msg), tc.wantErr) {
			t.Fatalf("POST %s: body %s does not name %s", tc.body, msg, tc.wantErr)
		}
	}
}

func TestHandlersResultBeforeDone409(t *testing.T) {
	_, j, ts := testServer(t, Spec{Experiments: []string{"table1"}})
	m := getJSON(t, ts.URL+"/v1/jobs/"+j.ID+"/result", http.StatusConflict)
	if !strings.Contains(m["error"].(string), "not done") {
		t.Fatalf("409 body: %v", m)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+j.ID+"/csv", http.StatusConflict)
}

func TestHandlersStatusAndList(t *testing.T) {
	_, j, ts := testServer(t, Spec{Experiments: []string{"table1"}})
	m := getJSON(t, ts.URL+"/v1/jobs/"+j.ID, http.StatusOK)
	if m["id"] != j.ID || m["state"] != "pending" {
		t.Fatalf("status body: %v", m)
	}
	l := getJSON(t, ts.URL+"/v1/jobs", http.StatusOK)
	jobs := l["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("list: %v", l)
	}
	h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if h["status"] != "ok" {
		t.Fatalf("healthz: %v", h)
	}
}

func TestHandlersCancelIdempotent(t *testing.T) {
	_, j, ts := testServer(t, Spec{Experiments: []string{"table1"}})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs/"+j.ID+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel #%d: status %d", i, resp.StatusCode)
		}
	}
	if !j.Canceled() {
		t.Fatal("job not marked canceled")
	}
	// A canceled-then-finished job keeps its terminal state on further
	// cancels.
	j.finish(StateCanceled, "canceled before start", nil, nil, nil)
	j.Cancel()
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state after late cancel: %s", st)
	}
}

func TestHandlersDrainRejects503(t *testing.T) {
	s, _, ts := testServer(t, Spec{Experiments: []string{"table1"}})
	s.Drain()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiments":["table1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d want 503", resp.StatusCode)
	}
	h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if h["status"] != "draining" {
		t.Fatalf("healthz while draining: %v", h)
	}
	snap := s.cfg.Metrics.Snapshot()
	_ = snap // server built without metrics: counters are nil-safe no-ops
}

func TestEventStreamNDJSONAndReplay(t *testing.T) {
	_, j, ts := testServer(t, Spec{Experiments: []string{"table1"}})
	j.post(Event{Type: "start", Experiment: "table1"})
	j.post(Event{Type: "experiment", Experiment: "table1"})
	j.finish(StateDone, "", []byte("report\n"), map[string][]byte{"t1.csv": []byte("a,b\n")}, []string{"t1.csv"})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	lastSeq := -1
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Seq != lastSeq+1 {
			t.Fatalf("gap in event stream: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		types = append(types, ev.Type)
	}
	want := []string{"submitted", "start", "experiment", "done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event types %v want %v", types, want)
	}

	// Replay from an offset returns exactly the suffix.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	data, _ := io.ReadAll(resp2.Body)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("replay from=2: %d lines (%q)", len(lines), data)
	}

	// Bad from parameter.
	resp3, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events?from=x")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: status %d", resp3.StatusCode)
	}
}

func TestEventStreamSSE(t *testing.T) {
	_, j, ts := testServer(t, Spec{Experiments: []string{"table1"}})
	j.finish(StateDone, "", []byte("r\n"), nil, nil)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+j.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{"id: 0\n", "event: submitted\n", "data: {", "event: done\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("SSE stream missing %q:\n%s", want, text)
		}
	}
}

func TestResultAndCSVAfterDone(t *testing.T) {
	_, j, ts := testServer(t, Spec{Experiments: []string{"table1"}})
	j.finish(StateDone, "", []byte("the report\n"),
		map[string][]byte{"t1.csv": []byte("a,b\n1,2\n")}, []string{"t1.csv"})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "the report\n" {
		t.Fatalf("result body %q", body)
	}
	m := getJSON(t, ts.URL+"/v1/jobs/"+j.ID+"/csv", http.StatusOK)
	names := m["csv"].([]any)
	if len(names) != 1 || names[0] != "t1.csv" {
		t.Fatalf("csv list: %v", m)
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/csv/t1.csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if string(csv) != "a,b\n1,2\n" {
		t.Fatalf("csv body %q", csv)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+j.ID+"/csv/other.csv", http.StatusNotFound)
}

func TestJobMetricsEndpoint(t *testing.T) {
	_, j, ts := testServer(t, Spec{Experiments: []string{"table1"}})
	j.reg.Counter("campaign.cells").Add(3)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(data), `"campaign.cells": 3`) {
		t.Fatalf("metrics JSON missing counter:\n%s", data)
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(prom), "campaign_cells 3") {
		t.Fatalf("metrics prom missing counter:\n%s", prom)
	}
}
