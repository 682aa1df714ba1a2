// Package detflow exercises the determinism analyzer's source→sink flow.
// Loaded under an internal/ import path the marked lines must be flagged:
// the sink arguments, and the clock reads and unsorted map-range appends
// that are findings where they occur. Loaded under a cmd/ path only the
// map-range append stays (binaries own their progress output).
package detflow

import (
	"fmt"
	"io"
	"sort"
	"time"

	"teva/internal/artifact"
	"teva/internal/obs"
)

// stamp is a nondeterminism source one call away: callers of stamp are
// tainted through its summary, not by seeing time.Now themselves.
func stamp() int64 { return time.Now().UnixNano() } // want detflow

// direct passes a source straight into a report writer.
func direct(w io.Writer) {
	fmt.Fprintln(w, time.Now()) // want detflow detflow
}

// viaSummary reaches the source through a module call and a local.
func viaSummary(w io.Writer) {
	v := stamp()
	fmt.Fprintln(w, v) // want detflow
}

// viaPayload persists a tainted value as an artifact payload — the cache
// would never hit twice on the same inputs again.
func viaPayload(s *artifact.Store, k artifact.Key) error {
	payload := stamp()
	return s.Save(k, payload) // want detflow
}

// viaMetric feeds a tainted value into an obs counter: snapshots stop
// being byte-identical across runs.
func viaMetric(reg *obs.Registry) {
	reg.Counter("fixture.bad").Add(stamp()) // want detflow
}

// mapOrder appends in map-iteration order without sorting; the slice's
// order is nondeterministic when it reaches the writer.
func mapOrder(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want detflow
	}
	fmt.Fprintln(w, keys) // want detflow
}

// chanOrder reports completion-order collection reaching a writer through
// the collect summary.
func chanOrder(w io.Writer, n int) {
	ch := make(chan int)
	for i := 0; i < n; i++ {
		go func() { ch <- i }()
	}
	results := collect(ch, n)
	fmt.Fprintln(w, results) // want detflow
}

// collect is the range-over-channel form of completion-order collection.
func collect(ch chan int, n int) []int {
	var out []int
	done := make(chan struct{})
	go func() { close(done) }()
	for v := range ch {
		out = append(out, v)
		if len(out) == n {
			break
		}
	}
	return out
}

// sortedOut is the clean collect-then-sort idiom: map order never escapes.
func sortedOut(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, keys)
}

// pure writes a deterministic value: no finding.
func pure(w io.Writer, seed int64) {
	fmt.Fprintln(w, seed*2654435761)
}

// allowed shows the suppression hatch for a reviewed exception.
func allowed(w io.Writer) {
	fmt.Fprintln(w, stamp()) //teva:allow detflow -- reviewed: debug-only diagnostics writer
}
