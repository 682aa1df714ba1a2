package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"teva/internal/experiments"
	"teva/internal/prng"
	"teva/internal/serve"
)

// Served jobs run the quick preset with serveRuns injected runs per cell,
// submitted by serveClients closed-loop clients.
const (
	serveRuns    = 4
	serveClients = 2
)

// roundJobs bounds the submissions one server instance takes before the
// benchmark replaces it with a fresh one over the same store. A finished
// job keeps its whole experiment environment reachable (about 9 MiB per
// job at the quick preset), so one server taking every job of a run
// would hold gigabytes. The replacement costs milliseconds, and while
// the last client finishes, the single run slot stays busy.
const roundJobs = 16

// serveState is an in-process teva-serve behind a loopback listener,
// over an artifact store that one quick "all" job has already filled.
type serveState struct {
	*base
	srv    *server
	client *http.Client

	rng    *prng.Source
	rounds [][][]string // each round's submissions, drawn in round order

	mu     sync.Mutex
	served map[string][]byte      // result bytes by joined experiment list
	differ []error                // repeats that served other bytes
	jobs   map[*tally][]servedJob // each tally's completed jobs
}

// server is one serve.Server listening on a loopback port.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{} // closed when the HTTP server goroutine exits
	url  string
}

func (b *base) startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.New(serve.Config{Artifacts: b.store, Metrics: b.reg, Clock: b.clock, MaxConcurrent: 1}),
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *server) stop() {
	s.srv.Drain()
	s.srv.Wait()
	s.hs.Close()
	<-s.done
}

// servedJob is one submission as the client saw it.
type servedJob struct {
	id      string
	deduped bool
	wait    float64         // seconds from the submit reply to the terminal event
	snap    json.RawMessage // the job's final metrics snapshot event
}

// jobSpec is the wire form the clients submit: the quick preset, the
// run's seed, serveRuns and one worker per job.
type jobSpec struct {
	Experiments []string `json:"experiments"`
	Quick       bool     `json:"quick"`
	Seed        uint64   `json:"seed"`
	Runs        int      `json:"runs"`
	Workers     int      `json:"workers"`
}

func newJobSpec(seed uint64, exps []string) jobSpec {
	return jobSpec{Experiments: exps, Quick: true, Seed: seed, Runs: serveRuns, Workers: 1}
}

func setupServe(o *options, rec *recorder) (state, error) {
	s := &serveState{
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		rng:    prng.New(o.seed ^ 0x5E12E),
		served: map[string][]byte{},
		jobs:   map[*tally][]servedJob{},
	}
	// The server's own decoding gives the options and configuration every
	// job runs with; the in-process check renders with the same.
	warm := []string{"all"}
	if o.size.serveExps != nil {
		warm = o.size.serveExps
	}
	wire, err := json.Marshal(newJobSpec(o.seed, warm))
	if err != nil {
		return nil, err
	}
	sp, err := serve.DecodeSpec(bytes.NewReader(wire))
	if err != nil {
		return nil, err
	}
	opts, cfg, err := sp.Effective()
	if err != nil {
		return nil, err
	}
	if s.base, err = newBase(o, rec, opts, cfg); err != nil {
		return nil, err
	}
	if s.srv, err = s.startServer(); err != nil {
		s.base.close()
		return nil, err
	}
	// The warm-up job is set-up, not a served unit, so it records no spans.
	if _, err := s.job(nil, "warmup", warm); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	s.setupSnap = s.reg.Snapshot()
	return s, nil
}

func (s *serveState) close() {
	s.srv.stop()
	s.client.CloseIdleConnections()
	s.base.close()
}

// round returns round k's roundJobs submissions, drawing rounds in order
// from one seeded generator. Every fifth submission repeats an experiment
// list submitted earlier in the round. The others split one seeded
// permutation of the pool into lists of 1 to 3 experiments, so every
// round serves each experiment once and rounds cost about the same.
func (s *serveState) round(k int) [][]string {
	pool := s.pool()
	for len(s.rounds) <= k {
		fresh := roundJobs - roundJobs/5
		sizes := make([]int, fresh)
		for i := range sizes {
			sizes[i] = 1
		}
		for extra := len(pool) - fresh; extra > 0; {
			if i := s.rng.Intn(fresh); sizes[i] < 3 {
				sizes[i]++
				extra--
			}
		}
		perm := s.rng.Perm(len(pool))
		var subs [][]string
		draw, job := 0, 0
		for i := 1; i <= roundJobs; i++ {
			if i%5 == 0 {
				subs = append(subs, subs[s.rng.Intn(len(subs))])
				continue
			}
			var exps []string
			for range sizes[job] {
				exps = append(exps, pool[perm[draw%len(pool)]])
				draw++
			}
			job++
			sort.Strings(exps)
			subs = append(subs, exps)
		}
		s.rounds = append(s.rounds, subs)
	}
	return s.rounds[k]
}

// pool is the experiments jobs draw from.
func (s *serveState) pool() []string {
	if s.o.size.serveExps != nil {
		return s.o.size.serveExps
	}
	return experiments.Names()
}

// step is round k: a fresh server over the warm store takes the round's
// submissions from closed-loop clients, each submitting its next job only
// after the previous one's result has arrived. The server stays up until
// the next round, so live_mib sees what one server retains.
func (s *serveState) step(rec *recorder, t *tally, k int) error {
	s.srv.stop()
	srv, err := s.startServer()
	if err != nil {
		return err
	}
	s.srv = srv
	subs := s.round(k)
	next := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(client string) {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(subs) {
					mu.Unlock()
					return
				}
				exps := subs[next]
				next++
				mu.Unlock()
				t0 := time.Now()
				j, err := s.job(rec, client, exps)
				p := opResult{key: strings.Join(exps, ","), secs: time.Since(t0).Seconds(), err: err}
				mu.Lock()
				t.ops = append(t.ops, p)
				if err == nil {
					t.work++
					s.jobs[t] = append(s.jobs[t], j)
				}
				mu.Unlock()
			}
		}(fmt.Sprintf("c%d", c))
	}
	wg.Wait()
	return nil
}

func (s *serveState) passSteps() int { return 1 }

// job submits one spec, follows its NDJSON event stream to the terminal
// event and downloads the result, recording the bytes for the check.
func (s *serveState) job(rec *recorder, client string, exps []string) (servedJob, error) {
	trace := rec.newTrace()
	top := rec.begin("serve.job", client, -1, trace)
	defer rec.end(top)

	var j servedJob
	body, err := json.Marshal(newJobSpec(s.o.seed, exps))
	if err != nil {
		return j, err
	}
	sp := rec.begin("serve.submit", "", top, trace)
	req, err := http.NewRequest(http.MethodPost, s.srv.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return j, err
	}
	req.Header.Set("X-Teva-Client", client)
	var sub struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	err = s.do(req, func(r io.Reader) error { return json.NewDecoder(r).Decode(&sub) })
	rec.end(sp)
	if err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	j.id, j.deduped = sub.ID, sub.Deduped

	t0 := time.Now()
	sp = rec.begin("serve.events", "", top, trace)
	toStart := -1
	if !j.deduped {
		toStart = rec.begin("serve.to_start", "", top, trace)
	}
	terminal := ""
	req, err = http.NewRequest(http.MethodGet, s.srv.url+"/v1/jobs/"+j.id+"/events", nil)
	if err != nil {
		return j, err
	}
	err = s.do(req, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20) // snapshot events carry a whole metrics snapshot
		for sc.Scan() {
			var ev serve.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return err
			}
			switch ev.Type {
			case "start":
				rec.end(toStart)
				toStart = -1
			case "snapshot":
				j.snap = ev.Snapshot
			case "done", "failed", "canceled":
				terminal = ev.Type
				if ev.Error != "" {
					terminal += ": " + ev.Error
				}
			}
		}
		return sc.Err()
	})
	rec.end(toStart)
	rec.end(sp)
	j.wait = time.Since(t0).Seconds()
	if err == nil && terminal != "done" {
		err = fmt.Errorf("job ended %q", terminal)
	}
	if err != nil {
		return j, fmt.Errorf("job %s events: %w", j.id, err)
	}

	sp = rec.begin("serve.result", "", top, trace)
	req, err = http.NewRequest(http.MethodGet, s.srv.url+"/v1/jobs/"+j.id+"/result", nil)
	if err != nil {
		return j, err
	}
	var result []byte
	err = s.do(req, func(r io.Reader) error {
		var err error
		result, err = io.ReadAll(r)
		return err
	})
	rec.end(sp)
	if err != nil {
		return j, fmt.Errorf("job %s result: %w", j.id, err)
	}
	key := strings.Join(exps, ",")
	s.mu.Lock()
	if prev, ok := s.served[key]; ok && !bytes.Equal(prev, result) {
		s.differ = append(s.differ, fmt.Errorf("%s: a repeat served different bytes", key))
	}
	s.served[key] = result
	s.mu.Unlock()
	return j, nil
}

// do sends req and hands a 2xx body to read.
func (s *serveState) do(req *http.Request, read func(io.Reader) error) error {
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// check renders each served experiment's section in-process, untimed,
// from the same store, and requires each served result to be the banner
// followed by the sections of its experiments in Names() order.
func (s *serveState) check(rec *recorder, _ []*tally) error {
	sections := map[string][]byte{}
	for _, name := range s.pool() {
		var buf bytes.Buffer
		err := rec.do("experiments.render", name, func() error {
			return experiments.RunSuite(s.env, experiments.SuiteConfig{Experiments: []string{name}, OmitBanner: true}, &buf)
		})
		if err != nil {
			return fmt.Errorf("rendering %s in-process: %w", name, err)
		}
		sections[name] = buf.Bytes()
	}
	var banner bytes.Buffer
	experiments.PrintBanner(&banner, s.env.Opts, s.f.Cfg.Seed)
	errs := s.differ
	for _, key := range sortedKeys(s.served) {
		got := s.served[key]
		want := append([]byte(nil), banner.Bytes()...)
		selected := map[string]bool{}
		for _, n := range strings.Split(key, ",") {
			selected[n] = true
		}
		for _, name := range experiments.Names() {
			if selected["all"] || selected[name] {
				want = append(want, sections[name]...)
			}
		}
		if !bytes.Equal(got, want) {
			errs = append(errs, fmt.Errorf("served result for %s differs from the in-process report (%d bytes, want %d)",
				key, len(got), len(want)))
		}
	}
	return errors.Join(errs...)
}

// layers adds the server-side per-layer metrics from the final metrics
// snapshot each traced-phase job streamed: the mean time per job in each
// experiment, the library counters, and the wait not spent inside any
// experiment.
func (s *serveState) layers(spans []span, phases []*tally, m metrics) {
	s.substrateLayers(spans, m)
	server := tracedCounters(s.setupSnap, phases[1])
	jobCounters := map[string]int64{}
	expSecs := map[string][]float64{}
	var overhead []float64
	for _, j := range s.jobs[phases[1]] {
		if j.deduped {
			continue
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
			Phases   map[string]struct {
				Nanos int64 `json:"nanos"`
			} `json:"phases"`
		}
		if err := json.Unmarshal(j.snap, &snap); err != nil {
			fmt.Fprintf(s.o.log, "bench: job %s metrics snapshot: %v\n", j.id, err)
			continue
		}
		for name, v := range snap.Counters {
			jobCounters[name] += v
		}
		var inside int64
		for _, path := range sortedKeys(snap.Phases) {
			if name, ok := strings.CutPrefix(path, "exp/"); ok {
				expSecs[name] = append(expSecs[name], float64(snap.Phases[path].Nanos)/1e9)
				inside += snap.Phases[path].Nanos
			}
		}
		overhead = append(overhead, j.wait-float64(inside)/1e9)
	}
	counterMetrics(func(name string) float64 { return server(name) + float64(jobCounters[name]) }, spans, m)
	for _, name := range experiments.Names() {
		m.set("serve.exp_s."+name, "s", mean(expSecs[name]))
	}
	m.set("serve.overhead_s.p50", "s", quantile(overhead, 0.5))
}
