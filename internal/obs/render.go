package obs

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of a registry's state, ordered: every
// slice is sorted by name/path, so two snapshots of equal state render
// byte-identically.
type Snapshot struct {
	Counters   []CounterSnap
	Gauges     []GaugeSnap
	Histograms []HistSnap
	Phases     []PhaseSnap
}

// CounterSnap is one counter's state.
type CounterSnap struct {
	Name  string
	Value int64
}

// GaugeSnap is one gauge's state.
type GaugeSnap struct {
	Name  string
	Value int64
}

// HistSnap is one histogram's state. Counts[i] is the non-cumulative
// count for Bounds[i]; the final Counts entry is the overflow bucket.
type HistSnap struct {
	Name   string
	Bounds []float64
	Counts []int64
}

// Total returns the histogram's observation count.
func (h HistSnap) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// PhaseSnap is one phase path's accumulated timings. Nanos is the only
// snapshot field that is not a pure function of the run's inputs — it
// reads the injected clock — so determinism tests zero it via a fake
// (or nil) clock.
type PhaseSnap struct {
	Path  string
	Count int64
	Nanos int64
}

// Snapshot copies the registry's current state. Safe during concurrent
// updates (each value is an atomic load); the result is a consistent
// rendering input, not an instantaneous cross-metric cut.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hs := HistSnap{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	for path, st := range r.phases {
		s.Phases = append(s.Phases, PhaseSnap{
			Path: path, Count: st.count.Load(), Nanos: st.nanos.Load(),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Path < s.Phases[j].Path })
	return s
}

// Counter returns the named counter's value in the snapshot (0 when
// absent — an unregistered counter and a zero counter are
// indistinguishable, which is exactly how the nil-safe live counters
// behave). The slice is sorted by name, so this is a binary search.
func (s Snapshot) Counter(name string) int64 {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value
	}
	return 0
}

// ftoa renders a float in the canonical shortest form shared by every
// deterministic exporter in the repo.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// JSON renders the snapshot as deterministic JSON: object keys in fixed
// order, metric entries sorted by name, floats via FormatFloat 'g' -1.
// The encoder is hand-rolled so byte layout is pinned by this package,
// not by encoding/json internals.
func (s Snapshot) JSON() []byte {
	var b bytes.Buffer
	b.WriteString("{\n  \"counters\": {")
	for i, c := range s.Counters {
		writeSep(&b, i)
		fmt.Fprintf(&b, "    %s: %d", quote(c.Name), c.Value)
	}
	closeObj(&b, len(s.Counters))
	b.WriteString(",\n  \"gauges\": {")
	for i, g := range s.Gauges {
		writeSep(&b, i)
		fmt.Fprintf(&b, "    %s: %d", quote(g.Name), g.Value)
	}
	closeObj(&b, len(s.Gauges))
	b.WriteString(",\n  \"histograms\": {")
	for i, h := range s.Histograms {
		writeSep(&b, i)
		fmt.Fprintf(&b, "    %s: {\"bounds\": [", quote(h.Name))
		for j, bound := range h.Bounds {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ftoa(bound))
		}
		b.WriteString("], \"counts\": [")
		for j, c := range h.Counts {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", c)
		}
		fmt.Fprintf(&b, "], \"total\": %d}", h.Total())
	}
	closeObj(&b, len(s.Histograms))
	b.WriteString(",\n  \"phases\": {")
	for i, p := range s.Phases {
		writeSep(&b, i)
		fmt.Fprintf(&b, "    %s: {\"count\": %d, \"nanos\": %d}", quote(p.Path), p.Count, p.Nanos)
	}
	closeObj(&b, len(s.Phases))
	b.WriteString("\n}\n")
	return b.Bytes()
}

func writeSep(b *bytes.Buffer, i int) {
	if i > 0 {
		b.WriteString(",")
	}
	b.WriteString("\n")
}

func closeObj(b *bytes.Buffer, n int) {
	if n > 0 {
		b.WriteString("\n  }")
	} else {
		b.WriteString("}")
	}
}

// quote JSON-quotes a name. Metric names match NameRE and phase paths
// are slash-joined segments, so no JSON escaping is ever required beyond
// the surrounding quotes; the strict check keeps that assumption honest.
func quote(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == '"' || name[i] == '\\' {
			panic(fmt.Sprintf("obs: name %q needs JSON escaping", name))
		}
	}
	return `"` + name + `"`
}

// promName converts a dotted metric name to the Prometheus exposition
// convention with the shared "teva_" namespace: dots become underscores.
func promName(name string) string {
	return "teva_" + strings.ReplaceAll(name, ".", "_")
}

// PrometheusText renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one TYPE line per metric, samples sorted,
// histogram buckets cumulative with `le` labels, phases as two labeled
// series (count and seconds). Byte-deterministic for equal snapshots.
func (s Snapshot) PrometheusText() []byte {
	var b bytes.Buffer
	for _, c := range s.Counters {
		n := promName(c.Name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, g.Value)
	}
	for _, h := range s.Histograms {
		n := promName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, ftoa(bound), cum)
		}
		cum += h.Counts[len(h.Counts)-1]
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(&b, "%s_count %d\n", n, cum)
	}
	if len(s.Phases) > 0 {
		b.WriteString("# TYPE teva_phase_count counter\n")
		for _, p := range s.Phases {
			fmt.Fprintf(&b, "teva_phase_count{phase=%q} %d\n", p.Path, p.Count)
		}
		b.WriteString("# TYPE teva_phase_seconds counter\n")
		for _, p := range s.Phases {
			fmt.Fprintf(&b, "teva_phase_seconds{phase=%q} %s\n", p.Path, ftoa(float64(p.Nanos)/1e9))
		}
	}
	return b.Bytes()
}

// WriteFile writes the snapshot to path: Prometheus text for names
// ending in .prom or .txt, the deterministic JSON layout otherwise.
func (s Snapshot) WriteFile(path string) error {
	data := s.JSON()
	if strings.HasSuffix(path, ".prom") || strings.HasSuffix(path, ".txt") {
		data = s.PrometheusText()
	}
	return os.WriteFile(path, data, 0o644)
}

// Summary renders the one-line end-of-run digest the CLIs print: metric
// family sizes plus the total event count, deterministic for equal
// snapshots (timer nanos are deliberately excluded).
func (s Snapshot) Summary() string {
	var events int64
	for _, c := range s.Counters {
		events += c.Value
	}
	return fmt.Sprintf("obs: %d counters (%d events), %d gauges, %d histograms, %d phases",
		len(s.Counters), events, len(s.Gauges), len(s.Histograms), len(s.Phases))
}
