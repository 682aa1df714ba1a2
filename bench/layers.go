package main

import (
	"syscall"

	"teva/internal/artifact"
	"teva/internal/campaign"
	"teva/internal/dta"
	"teva/internal/experiments"
	"teva/internal/fpu"
	"teva/internal/obs"
	"teva/internal/serve"
	"teva/internal/workloads"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// perLayer are the metrics of a traced run. Every workload prints all of
// them; a layer the workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.new_s", "s"},
		{"workloads.build_s", "s"},
		{"trace.capture_s", "s"},
		{"trace.instr", "count"},
		{"cpu.golden_s", "s"},
		{"cpu.golden_mips", "MIPS"},
		{"cpu.golden_instr", "count"},
		{"cpu.golden_cycles", "count"},
		{"cpu.ipc", "ratio"},
		{"dta.random_s", "s"},
		{"dta.workload_s", "s"},
	}
	for _, op := range fpu.Ops() {
		defs = append(defs, metricDef{"dta.op_s." + op.String(), "s"})
	}
	defs = append(defs,
		metricDef{"dta.pairs", "count"},
		metricDef{"dta.cycles", "count"},
		metricDef{"dta.ns_per_pair", "ns"},
		metricDef{"dta.faulty_ratio", "ratio"},
		metricDef{"errmodel.build_s", "s"},
		metricDef{"campaign.cell_s.p50", "s"},
		metricDef{"campaign.cell_s.p75", "s"},
	)
	for _, name := range workloads.Names() {
		defs = append(defs, metricDef{"campaign.cell_s." + name, "s"})
	}
	defs = append(defs,
		metricDef{"campaign.run_ms", "ms"},
		metricDef{"campaign.runs", "count"},
		metricDef{"campaign.masked_ratio", "ratio"},
		metricDef{"campaign.uninjected_ratio", "ratio"},
		metricDef{"campaign.injections_per_run", "count"},
		metricDef{"experiments.memo_hits", "count"},
		metricDef{"experiments.memo_misses", "count"},
		metricDef{"experiments.cells_aborted", "count"},
		metricDef{"experiments.render_s", "s"},
		metricDef{"artifact.hits", "count"},
		metricDef{"artifact.misses", "count"},
		metricDef{"artifact.writes", "count"},
		metricDef{"artifact.corrupt", "count"},
		metricDef{"artifact.write_errors", "count"},
	)
	for _, phase := range []string{"submit", "to_start", "wait", "result"} {
		defs = append(defs,
			metricDef{"serve." + phase + "_s.p50", "s"},
			metricDef{"serve." + phase + "_s.p95", "s"})
	}
	defs = append(defs, metricDef{"serve.overhead_s.p50", "s"})
	for _, name := range experiments.Names() {
		defs = append(defs, metricDef{"serve.exp_s." + name, "s"})
	}
	return append(defs,
		metricDef{"serve.jobs_deduped", "count"},
		metricDef{"serve.jobs_failed", "count"},
		metricDef{"go.alloc_mb", "MiB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.max_rss_mb", "MiB"},
		metricDef{"trace_overhead", "ratio"},
		metricDef{"trace.coverage", "ratio"},
	)
}()

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

// spanMetrics derives the per-layer times from the spans: the mean self
// time per call of each layer, and percentiles where a layer's calls are
// the units a user waits for.
func spanMetrics(spans []span, m metrics) {
	s := selfSamples(spans)
	for _, d := range [][2]string{
		{"core.new_s", "core.new"},
		{"workloads.build_s", "workloads.build"},
		{"trace.capture_s", "trace.capture"},
		{"cpu.golden_s", "cpu.golden"},
		{"dta.random_s", "dta.random"},
		{"dta.workload_s", "dta.workload"},
		{"errmodel.build_s", "errmodel.build"},
		{"experiments.render_s", "experiments.render"},
	} {
		m.set(d[0], "s", mean(s[d[1]]))
	}
	for _, op := range fpu.Ops() {
		xs := append(append([]float64(nil), s["dta.random "+op.String()]...), s["dta.workload "+op.String()]...)
		m.set("dta.op_s."+op.String(), "s", mean(xs))
	}
	cells := s["campaign.cell"]
	m.set("campaign.cell_s.p50", "s", quantile(cells, 0.50))
	m.set("campaign.cell_s.p75", "s", quantile(cells, 0.75))
	for _, name := range workloads.Names() {
		m.set("campaign.cell_s."+name, "s", mean(s["campaign.cell "+name]))
	}
	for _, d := range [][2]string{
		{"submit", "serve.submit"},
		{"to_start", "serve.to_start"},
		{"wait", "serve.events"},
		{"result", "serve.result"},
	} {
		m.set("serve."+d[0]+"_s.p50", "s", quantile(s[d[1]], 0.50))
		m.set("serve."+d[0]+"_s.p95", "s", quantile(s[d[1]], 0.95))
	}
}

// counterMetrics sets the per-layer counts from the library's own
// counters; c returns a counter's value over the traced set-up and the
// traced phase. Campaign counters come from the traced phase only, since
// no set-up injects.
func counterMetrics(c func(name string) float64, spans []span, m metrics) {
	s := selfSamples(spans)
	pairs := c(dta.MetricPairs)
	m.set("dta.pairs", "count", pairs)
	m.set("dta.cycles", "count", c(dta.MetricCycles))
	if pairs > 0 {
		m.set("dta.ns_per_pair", "ns", 1e9*(sum(s["dta.random"])+sum(s["dta.workload"]))/pairs)
		m.set("dta.faulty_ratio", "ratio", c(dta.MetricViolations)/pairs)
	}
	runs := c(campaign.MetricRuns)
	m.set("campaign.runs", "count", runs)
	if runs > 0 {
		m.set("campaign.run_ms", "ms", 1000*sum(s["campaign.cell"])/runs)
		m.set("campaign.masked_ratio", "ratio", c(campaign.MetricOutcomeMasked)/runs)
		m.set("campaign.uninjected_ratio", "ratio", 1-c(campaign.MetricRunsWithInjection)/runs)
		m.set("campaign.injections_per_run", "count", c(campaign.MetricInjectedErrors)/runs)
	}
	for _, d := range [][2]string{
		{"experiments.memo_hits", experiments.MetricMemoHits},
		{"experiments.memo_misses", experiments.MetricMemoMisses},
		{"experiments.cells_aborted", experiments.MetricCellsAborted},
		{"artifact.hits", artifact.MetricHits},
		{"artifact.misses", artifact.MetricMisses},
		{"artifact.writes", artifact.MetricWrites},
		{"artifact.corrupt", artifact.MetricCorrupt},
		{"artifact.write_errors", artifact.MetricWriteErrors},
		{"serve.jobs_deduped", serve.MetricJobsDeduped},
		{"serve.jobs_failed", serve.MetricJobsFailed},
	} {
		m.set(d[0], "count", c(d[1]))
	}
}

// tracedCounters returns c for counterMetrics over one registry: its
// value at the end of set-up plus what the traced steps added.
func tracedCounters(setup obs.Snapshot, traced *tally) func(string) float64 {
	return func(name string) float64 {
		return float64(setup.Counter(name) + traced.counts[name])
	}
}

// maxRSSMiB returns the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
