package serve

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"strings"

	"teva/internal/obs"
)

// writeSnapshot renders a registry's deterministic snapshot: Prometheus
// text with ?format=prom, the canonical JSON layout otherwise.
func writeSnapshot(w http.ResponseWriter, r *http.Request, reg *obs.Registry) {
	snap := reg.Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(snap.PrometheusText())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(snap.JSON())
}

// routes wires the API. All state-reading endpoints work on any job a
// client can name; the job IDs are content addresses, so "the job for
// this spec" is discoverable by resubmitting the spec (idempotent).
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	s.mux.HandleFunc("GET /v1/jobs/{id}/csv", s.handleCSVList)
	s.mux.HandleFunc("GET /v1/jobs/{id}/csv/{name}", s.handleCSV)
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON writes v as a JSON response. Marshaling the typed payloads
// here cannot fail; a failure is a programming error surfaced as 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"internal encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

type errorBody struct {
	Error string `json:"error"`
}

type jobSummary struct {
	ID    string `json:"id"`
	State State  `json:"state"`
}

type submitBody struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	Deduped bool   `json:"deduped"`
}

type statusBody struct {
	ID       string        `json:"id"`
	State    State         `json:"state"`
	Error    string        `json:"error,omitempty"`
	Spec     Spec          `json:"spec"`
	Events   int           `json:"events"`
	Progress *progressBody `json:"progress,omitempty"`
}

type progressBody struct {
	CellsDone   int64 `json:"cells_done"`
	CellsTotal  int64 `json:"cells_total"`
	CellsCached int64 `json:"cells_cached"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	writeSnapshot(w, r, s.cfg.Metrics)
}

// clientID names the submitting client for the fairness scheduler: the
// X-Teva-Client header when the caller sets one (lets jobs behind one
// proxy schedule separately), otherwise the peer host. The identity is
// purely advisory — it orders slot grants, never results.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Teva-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sp, err := DecodeSpec(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	j, deduped, err := s.SubmitAs(sp, clientID(r))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	status := http.StatusAccepted
	if deduped {
		status = http.StatusOK
	}
	writeJSON(w, status, submitBody{ID: j.ID, State: j.State(), Deduped: deduped})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]jobSummary, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, jobSummary{ID: j.ID, State: j.State()})
	}
	writeJSON(w, http.StatusOK, map[string][]jobSummary{"jobs": out})
}

// lookup resolves {id}, writing the 404 itself when absent.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	body := statusBody{
		ID:     j.ID,
		State:  j.State(),
		Error:  j.Err(),
		Spec:   j.Spec,
		Events: j.EventCount(),
	}
	if p, ok := j.Progress(); ok {
		body.Progress = &progressBody{
			CellsDone:   p.CellsDone,
			CellsTotal:  p.CellsTotal,
			CellsCached: p.CellsCached,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, jobSummary{ID: j.ID, State: j.State()})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if st := j.State(); st != StateDone {
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not done (state " + string(st) + ")"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(j.Result())
}

func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	writeSnapshot(w, r, j.reg)
}

func (s *Server) handleCSVList(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if st := j.State(); st != StateDone {
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not done (state " + string(st) + ")"})
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{"csv": j.CSVNames()})
}

func (s *Server) handleCSV(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	data := j.CSV(r.PathValue("name"))
	if data == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no CSV " + r.PathValue("name")})
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Write(data)
}

// handleEvents streams the job's event log: Server-Sent Events when the
// client asks for text/event-stream, NDJSON otherwise. ?from=N resumes
// from sequence N (every event carries its seq, so a dropped connection
// resumes loss-free). The stream ends once the job is terminal and the
// log is fully replayed; the job itself is never affected by the
// subscriber going away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad from parameter"})
			return
		}
		from = n
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		evs, more, terminal := j.eventsSince(from)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				w.Write([]byte("id: " + strconv.Itoa(ev.Seq) + "\nevent: " + ev.Type + "\ndata: "))
				w.Write(data)
				w.Write([]byte("\n\n"))
			} else {
				w.Write(data)
				w.Write([]byte("\n"))
			}
			from = ev.Seq + 1
		}
		if flusher != nil {
			flusher.Flush()
		}
		// A terminal state is flipped atomically with the final event, so
		// seeing it means the log just replayed is complete.
		if terminal {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}
