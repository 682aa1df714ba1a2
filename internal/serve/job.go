package serve

import (
	"encoding/json"
	"sync"

	"teva/internal/experiments"
	"teva/internal/obs"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: Pending (accepted, waiting for a run slot) → Running →
// one of Done (result available), Failed (hard error), or Canceled
// (drained by a cancel request or server shutdown; completed cells are
// in the artifact cache, so resubmitting the same spec resumes).
const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry in a job's ordered event log. Seq is dense from 0,
// so a client that reconnects with ?from=N replays exactly the suffix
// it missed. Events carry no wall-clock timestamps: the log's content
// is a function of the spec and scheduling, and clients that need
// timing read the snapshot events' phase timers.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // submitted|start|experiment|progress|snapshot|done|failed|canceled
	// Experiment names the experiment for start/experiment events.
	Experiment string `json:"experiment,omitempty"`
	// Error carries the failure or interrupt reason.
	Error string `json:"error,omitempty"`
	// Cells* mirror experiments.Progress for progress events.
	CellsDone   int64 `json:"cells_done,omitempty"`
	CellsTotal  int64 `json:"cells_total,omitempty"`
	CellsCached int64 `json:"cells_cached,omitempty"`
	// Snapshot is the job registry's deterministic obs snapshot (JSON)
	// for snapshot events.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// Job is one accepted campaign-matrix request. Its identity is the
// spec's content address, so "the job" is shared by every client that
// submitted the same spec; the run context is rooted in the server, not
// any request, and a client disconnect never cancels it.
type Job struct {
	ID   string
	Spec Spec

	// reg is the job's own metrics registry; its snapshot is the
	// /metrics payload and the source of snapshot events.
	reg *obs.Registry

	mu       sync.Mutex
	state    State
	errText  string
	events   []Event
	notify   chan struct{}         // closed and replaced on every append
	env      *experiments.Env      // while running; finish drops it
	final    *experiments.Progress // env's counters when the job finished
	canceled bool
	result   []byte            // the deterministic report (state Done)
	csv      map[string][]byte // exported CSVs by file name (state Done)
	csvNames []string          // sorted CSV names (directory order, not map order)
	done     chan struct{}     // closed on any terminal state
}

func newJob(sp Spec, reg *obs.Registry) *Job {
	j := &Job{
		ID:     sp.JobID(),
		Spec:   sp,
		reg:    reg,
		state:  StatePending,
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
	j.post(Event{Type: "submitted"})
	return j
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure/interrupt reason ("" while healthy).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errText
}

// Done returns the channel closed when the job reaches a terminal
// state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the deterministic report bytes (nil until Done).
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// CSV returns the named CSV export (nil when absent or not done).
func (j *Job) CSV(name string) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.csv[name]
}

// CSVNames returns the sorted exported CSV file names. The list is
// recorded from the sorted directory listing at completion time, not
// re-derived from map iteration, so it is deterministic by
// construction.
func (j *Job) CSVNames() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.csvNames...)
}

// EventCount returns the number of events posted so far.
func (j *Job) EventCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// Progress reports the matrix counters, live while running and final
// once finished; ok is false when the job never got an environment
// (pending, or failed or canceled before start).
func (j *Job) Progress() (experiments.Progress, bool) {
	j.mu.Lock()
	env, final := j.env, j.final
	j.mu.Unlock()
	switch {
	case env != nil:
		return env.Progress(), true
	case final != nil:
		return *final, true
	}
	return experiments.Progress{}, false
}

// post appends an event, assigning its sequence number and waking every
// subscriber.
func (j *Job) post(ev Event) {
	j.mu.Lock()
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// eventsSince returns the events at sequence >= from, a channel that is
// closed when more arrive, and whether the job is already terminal.
// Terminal with an empty slice means the subscriber has replayed
// everything and can stop.
func (j *Job) eventsSince(from int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.notify, j.state.Terminal()
}

// attach records the running job's environment so Cancel and server
// drain can reach it. Returns false when the job was canceled before it
// started — the runner must stop without touching the environment.
func (j *Job) attach(env *experiments.Env) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled {
		return false
	}
	j.env = env
	j.state = StateRunning
	return true
}

// Cancel requests a graceful stop: no new cells are dispatched,
// in-flight cells finish and land in the artifact cache (resubmitting
// the spec later resumes from them). Idempotent; a no-op once terminal.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.canceled = true
	env := j.env
	j.mu.Unlock()
	if env != nil {
		env.Drain()
	}
}

// Canceled reports whether a cancel was requested.
func (j *Job) Canceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceled
}

// finish moves the job to a terminal state, publishes the matching
// event, and releases waiters. It keeps the environment's final counters
// and drops the environment itself, with its framework, models and
// golden runs, so a finished job pins only its report. result/csv are
// only retained for Done; csvNames must already be sorted. The state
// flip and the terminal event are appended under one lock so any
// observer that sees a terminal state also sees the complete event log —
// event streams rely on this to know when replay is finished.
func (j *Job) finish(state State, errText string, result []byte, csv map[string][]byte, csvNames []string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errText = errText
	if j.env != nil {
		p := j.env.Progress()
		j.final, j.env = &p, nil
	}
	if state == StateDone {
		j.result = result
		j.csv = csv
		j.csvNames = csvNames
	}
	j.events = append(j.events, Event{Seq: len(j.events), Type: string(state), Error: errText})
	close(j.notify)
	j.notify = make(chan struct{})
	close(j.done)
	j.mu.Unlock()
}
