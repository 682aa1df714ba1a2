package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder started. Attr qualifies the call (the FPU op of a DTA summary,
// the benchmark of a campaign cell). Parent indexes the recorder's span
// list (-1 for a top-level span); every span of one cell, summary or job
// carries that unit's trace id.
type span struct {
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trace  int64  `json:"trace"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced timed phase runs the same code with
// only a nil check per call.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	traces int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// newTrace allocates the id shared by all spans of one unit of work.
func (r *recorder) newTrace() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return r.traces
}

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name, attr string, parent int, trace int64) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Attr: attr, Start: t, End: -1, Parent: parent, Trace: trace})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[i].End = t
	r.mu.Unlock()
}

// do runs fn inside a top-level span of a new trace.
func (r *recorder) do(name, attr string, fn func() error) error {
	i := r.begin(name, attr, -1, r.newTrace())
	defer r.end(i)
	return fn()
}

// snapshot copies the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Overlapping children (concurrent calls under one
// parent) are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		self[i] = s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return self
}

// coverage returns the share of the given time ranges that top-level
// spans cover.
func coverage(spans []span, ranges []interval) float64 {
	var top []interval
	for _, s := range spans {
		if s.Parent < 0 && s.End >= 0 {
			top = append(top, interval{s.Start, s.End})
		}
	}
	var cov, total int64
	for _, r := range ranges {
		cov += covered(top, r.lo, r.hi)
		total += r.hi - r.lo
	}
	if total <= 0 {
		return 0
	}
	return float64(cov) / float64(total)
}

// selfSamples returns the self times of closed spans in seconds, keyed by
// span name and, for spans with an attribute, also by "name attr".
func selfSamples(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		v := float64(self[i]) / 1e9
		out[s.Name] = append(out[s.Name], v)
		if s.Attr != "" {
			out[s.Name+" "+s.Attr] = append(out[s.Name+" "+s.Attr], v)
		}
	}
	return out
}
