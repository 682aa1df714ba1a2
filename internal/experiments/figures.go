package experiments

import (
	"fmt"
	"io"

	"teva/internal/artifact"
	"teva/internal/dta"
	"teva/internal/fpu"
	"teva/internal/sta"
	"teva/internal/stats"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// Table1 renders the error-model feature matrix (static content).
func Table1(w io.Writer) {
	header(w, "Table I: overview of timing error injection models")
	fmt.Fprintf(w, "%-10s %-22s %-8s %-12s %-9s %-10s\n",
		"Model", "Injection technique", "Voltage", "Instruction", "Workload", "Microarch")
	fmt.Fprintf(w, "%-10s %-22s %-8s %-12s %-9s %-10s\n",
		"DA-model", "fixed probability", "yes", "no", "no", "no")
	fmt.Fprintf(w, "%-10s %-22s %-8s %-12s %-9s %-10s\n",
		"IA-model", "statistical", "yes", "yes", "no", "no")
	fmt.Fprintf(w, "%-10s %-22s %-8s %-12s %-9s %-10s\n",
		"WA-model", "statistical", "yes", "yes", "yes", "yes")
}

// Table2Row is one benchmark's inventory line.
type Table2Row struct {
	App          string
	Input        string
	Instructions int64
	FPShare      float64
	Criteria     string
}

// Table2 measures the benchmark inventory.
func Table2(e *Env) ([]Table2Row, error) {
	ws, err := e.Workloads()
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, w := range ws {
		tr, err := e.Trace(w)
		if err != nil {
			return nil, err
		}
		fp := float64(tr.FPTotal()) / float64(tr.TotalInstr)
		rows = append(rows, Table2Row{
			App: w.Name, Input: w.Input,
			Instructions: tr.TotalInstr, FPShare: fp, Criteria: w.Criteria,
		})
	}
	return rows, nil
}

// RenderTable2 prints the inventory.
func RenderTable2(w io.Writer, rows []Table2Row) {
	header(w, "Table II: input, size and error classification across the benchmarks")
	fmt.Fprintf(w, "%-8s %-16s %14s %8s  %s\n", "App", "Input", "Instructions", "FP%", "Classification")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-16s %14d %7.1f%%  %s\n",
			r.App, r.Input, r.Instructions, 100*r.FPShare, r.Criteria)
	}
}

// Fig4Result is the longest-path distribution: a census of the K longest
// register-to-register paths, without the paths themselves.
type Fig4Result struct {
	CLK float64
	// NumPaths is the number of paths in the census (K, unless the design
	// has fewer).
	NumPaths int
	// ByGroup counts paths per functional-unit group ("fpu/fp-mul.d",
	// "alu", ...).
	ByGroup map[string]int
	// MinSlack is the smallest slack among the K paths.
	MinSlack float64
	// IntWorst is the slowest integer-side path delay.
	IntWorst float64
	// UnitWorst maps every functional-unit group (including those absent
	// from the top-K tail) to its worst static path delay.
	UnitWorst map[string]float64
	// Truncated reports that at least one stage's path enumeration hit
	// its expansion budget before yielding the requested K, so the tail
	// counts may undercount that unit. The CLI surfaces this as a
	// warning on stderr (stdout stays deterministic either way).
	Truncated bool
}

// Fig4 enumerates the longest paths of the placed core (FPU + integer
// units) and groups them per unit. The census reads nothing but the
// design and the path count, so it is stored under the artifact key of
// exactly those and reloaded on a warm store; the paths' net lists are
// dropped once counted.
func Fig4(e *Env) (*Fig4Result, error) {
	lib := e.F.FPU.Lib
	ak := artifact.Fig4Key(e.F.FPU.Seed, e.Opts.Fig4Paths, lib.ClockToQ, lib.Setup)
	res, _, err := artifact.LoadOrCompute(e.F.Cfg.Artifacts, ak, func() (*Fig4Result, error) {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		return fig4(e)
	})
	return res, err
}

// fig4 is Fig4's analysis.
func fig4(e *Env) (*Fig4Result, error) {
	intU, err := e.F.IntUnit()
	if err != nil {
		return nil, err
	}
	reports := append(e.F.FPU.StageReports(), intU.StageReports()...)
	paths, truncated := sta.TopPathsAcross(reports, e.Opts.Fig4Paths)
	res := &Fig4Result{
		CLK:       e.F.FPU.CLK,
		NumPaths:  len(paths),
		ByGroup:   make(map[string]int),
		MinSlack:  e.F.FPU.CLK,
		IntWorst:  intU.WorstDelay(),
		UnitWorst: make(map[string]float64),
		Truncated: truncated,
	}
	for _, p := range paths {
		res.ByGroup[pathGroup(p)]++
		if s := p.Slack(res.CLK); s < res.MinSlack {
			res.MinSlack = s
		}
	}
	for _, r := range reports {
		g := pathGroup(sta.Path{Netlist: r.Netlist, Unit: r.Netlist})
		if r.WorstDelay > res.UnitWorst[g] {
			res.UnitWorst[g] = r.WorstDelay
		}
	}
	return res, nil
}

// pathGroup maps a unit tag to its Figure 4 group: the FPU pipeline
// ("fpu/fp-mul.d") or the integer unit ("alu").
func pathGroup(p sta.Path) string {
	unit := p.Unit
	if unit == "" {
		unit = p.Netlist
	}
	// "fpu/fp-mul.d/s4-cpa" -> "fpu/fp-mul.d"; "alu/exec" -> "alu".
	parts := splitN(unit, '/', 3)
	if len(parts) >= 2 && parts[0] == "fpu" {
		return parts[0] + "/" + parts[1]
	}
	return parts[0]
}

func splitN(s string, sep byte, n int) []string {
	var parts []string
	start := 0
	for i := 0; i < len(s) && len(parts) < n-1; i++ {
		if s[i] == sep {
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

// RenderFig4 prints the distribution.
func RenderFig4(w io.Writer, r *Fig4Result) {
	header(w, fmt.Sprintf("Figure 4: distribution of the %d longest timing paths (CLK %.0f ps)", r.NumPaths, r.CLK))
	for _, g := range sortedKeys(r.ByGroup) {
		fmt.Fprintf(w, "%-16s %5d paths\n", g, r.ByGroup[g])
	}
	fmt.Fprintf(w, "minimum slack among plotted paths: %.0f ps\n", r.MinSlack)
	fmt.Fprintf(w, "slowest integer-side path: %.0f ps (slack %.0f ps)\n",
		r.IntWorst, r.CLK-r.IntWorst)
	fmt.Fprintln(w, "\nworst static path delay per unit (slack at CLK):")
	for _, g := range sortedKeys(r.UnitWorst) {
		d := r.UnitWorst[g]
		fmt.Fprintf(w, "%-16s %6.0f ps  (slack %5.0f ps)\n", g, d, r.CLK-d)
	}
}

// Fig5Result is the bit-flip multiplicity distribution per level.
type Fig5Result struct {
	// Fraction[level][k] is the share of faulty instructions with k
	// corrupted bits (k = 1, 2; index 0 holds the ">2" share).
	One, Two, More map[string]float64
	// MultiAvg is the average multi-bit share across levels (the paper
	// reports 64.5%).
	MultiAvg float64
}

// Fig5 aggregates flip-count histograms over all benchmarks' workload
// DTA at both levels.
func Fig5(e *Env) (*Fig5Result, error) {
	ws, err := e.Workloads()
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{
		One:  make(map[string]float64),
		Two:  make(map[string]float64),
		More: make(map[string]float64),
	}
	var multis []float64
	for _, level := range e.Levels() {
		var one, two, more, faulty int
		for _, wl := range ws {
			sums, err := e.WASummaries(level, wl)
			if err != nil {
				return nil, err
			}
			for _, s := range sums {
				faulty += s.Faulty
				if len(s.FlipHist) > 1 {
					one += s.FlipHist[1]
				}
				if len(s.FlipHist) > 2 {
					two += s.FlipHist[2]
				}
				for k := 3; k < len(s.FlipHist); k++ {
					more += s.FlipHist[k]
				}
			}
		}
		if faulty == 0 {
			continue
		}
		res.One[level.Name] = float64(one) / float64(faulty)
		res.Two[level.Name] = float64(two) / float64(faulty)
		res.More[level.Name] = float64(more) / float64(faulty)
		multis = append(multis, float64(two+more)/float64(faulty))
	}
	res.MultiAvg = stats.Mean(multis)
	return res, nil
}

// RenderFig5 prints the histogram.
func RenderFig5(w io.Writer, r *Fig5Result) {
	header(w, "Figure 5: number of bit flips at faulty instruction outputs")
	for _, lv := range []string{"VR15", "VR20"} {
		if _, ok := r.One[lv]; !ok {
			fmt.Fprintf(w, "%s: no faulty instructions observed\n", lv)
			continue
		}
		fmt.Fprintf(w, "%s: 1 bit %5.1f%%   2 bits %5.1f%%   >2 bits %5.1f%%\n",
			lv, 100*r.One[lv], 100*r.Two[lv], 100*r.More[lv])
	}
	fmt.Fprintf(w, "multi-bit share, average across levels: %.1f%% (paper: 64.5%%)\n",
		100*r.MultiAvg)
}

// Fig6Result is the BER-convergence study.
type Fig6Result struct {
	// FullN is the full-trace sample size; AE maps each sub-sample size
	// K to the mean absolute BER error vs the full trace (Eq. 3).
	FullN int
	AE    map[int]float64
	// FullBER is the full-trace per-bit error ratio.
	FullBER []float64
}

// Fig6 reproduces the convergence experiment: the BER of fp-mul.d on the
// is benchmark's operands, for increasing DTA sample sizes, against the
// "full trace".
func Fig6(e *Env) (*Fig6Result, error) {
	ws, err := e.Workloads()
	if err != nil {
		return nil, err
	}
	var isW *workloads.Workload
	for _, w := range ws {
		if w.Name == "is" {
			isW = w
		}
	}
	if isW == nil {
		return nil, fmt.Errorf("experiments: is benchmark missing")
	}
	tr, err := e.Trace(isW)
	if err != nil {
		return nil, err
	}
	pool := tr.Pairs[fpu.DMul]
	if len(pool) == 0 {
		return nil, fmt.Errorf("experiments: is trace has no fp-mul.d operands")
	}
	src := e.rng("fig6")
	scale := e.F.Volt.ScaleFor(vscale.VR20)
	// Each draw advances the shared source whether or not the analysis
	// itself is reloaded from the artifact store, so cached and cold runs
	// see identical operand streams. The tag names the draw (full trace,
	// or sub-sample K and repetition), keeping every stream's cache entry
	// distinct.
	ber := func(tag string, n int) ([]float64, error) {
		pairs := make([]dta.Pair, n)
		for i := range pairs {
			pairs[i] = pool[src.Intn(len(pool))]
		}
		sum, err := e.cachedSummary("fig6/"+tag, fpu.DMul, scale, n, func() (*dta.Summary, error) {
			return e.summarize(e.F.FPU, fpu.DMul, scale, pairs)
		})
		if err != nil {
			return nil, err
		}
		return sum.BER(), nil
	}
	full, err := ber("full", e.Opts.Fig6Full)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{FullN: e.Opts.Fig6Full, AE: make(map[int]float64), FullBER: full}
	reps := e.Opts.Fig6Reps
	if reps < 1 {
		reps = 1
	}
	for _, k := range e.Opts.Fig6Ks {
		var aes []float64
		for r := 0; r < reps; r++ {
			sub, err := ber(fmt.Sprintf("K%d/r%d", k, r), k)
			if err != nil {
				return nil, err
			}
			aes = append(aes, stats.MeanAbsError(full, sub))
		}
		res.AE[k] = stats.Mean(aes)
	}
	return res, nil
}

// RenderFig6 prints the convergence table.
func RenderFig6(w io.Writer, r *Fig6Result) {
	header(w, "Figure 6: BER convergence with DTA sample size (fp-mul.d of is, VR20)")
	fmt.Fprintf(w, "full trace: %d operands\n", r.FullN)
	ks := make([]int, 0, len(r.AE))
	for k := range r.AE {
		ks = append(ks, k)
	}
	sortInts(ks)
	for _, k := range ks {
		fmt.Fprintf(w, "K = %7d  mean absolute BER error vs full: %.3f\n", k, r.AE[k])
	}
	s, e2, m := berGroups(r.FullBER)
	fmt.Fprintf(w, "full-trace BER means: sign %.4f, exponent %.4f, mantissa %.4f\n", s, e2, m)
}

// BERProfile is the per-field BER summary of one op at one level.
type BERProfile struct {
	Op                fpu.Op
	ER                float64
	SignBER           float64
	ExponentBER       float64
	MantissaBER       float64
	MaxBitBER         float64
	MaxBitIndex       int
	CharacterizedBits int
}

// profile derives a BERProfile from a DTA summary.
func profile(op fpu.Op, s *dta.Summary) BERProfile {
	ber := s.BER()
	p := BERProfile{Op: op, ER: s.ErrorRatio(), CharacterizedBits: len(ber)}
	p.SignBER, p.ExponentBER, p.MantissaBER = berGroupsFor(op, ber)
	for i, b := range ber {
		if b > p.MaxBitBER {
			p.MaxBitBER, p.MaxBitIndex = b, i
		}
	}
	return p
}

// berGroups splits a 64-bit binary64 BER vector into field means.
func berGroups(ber []float64) (sign, exponent, mantissa float64) {
	return berGroupsFor(fpu.DMul, ber)
}

// berGroupsFor splits a BER vector into (sign, exponent, mantissa) means
// using the op's result format; integer results report everything under
// mantissa.
func berGroupsFor(op fpu.Op, ber []float64) (sign, exponent, mantissa float64) {
	f := op.Format()
	fb, eb := int(f.FracBits), int(f.ExpBits)
	if op.ResultWidth() != int(f.Width()) {
		return 0, 0, stats.Mean(ber) // f2i: integer destination
	}
	if len(ber) < fb+eb+1 {
		return 0, 0, 0
	}
	mantissa = stats.Mean(ber[:fb])
	exponent = stats.Mean(ber[fb : fb+eb])
	sign = ber[fb+eb]
	return sign, exponent, mantissa
}

// Fig7 characterizes the IA model's bit error-injection probabilities.
func Fig7(e *Env) (map[string][]BERProfile, error) {
	out := make(map[string][]BERProfile)
	for _, level := range e.Levels() {
		sums, err := e.F.RandomSummariesCtx(e.ctx, level)
		if err != nil {
			return nil, err
		}
		var profiles []BERProfile
		for _, op := range fpu.Ops() {
			profiles = append(profiles, profile(op, sums[op]))
		}
		out[level.Name] = profiles
	}
	return out, nil
}

// RenderFig7 prints the per-op profiles.
func RenderFig7(w io.Writer, r map[string][]BERProfile) {
	header(w, "Figure 7: bit error-injection probabilities per instruction (IA-model)")
	for _, lv := range []string{"VR15", "VR20"} {
		fmt.Fprintf(w, "-- %s\n", lv)
		fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %12s\n",
			"op", "ER", "sign", "exponent", "mantissa", "max-bit")
		for _, p := range r[lv] {
			fmt.Fprintf(w, "%-10s %10.2e %10.2e %10.2e %10.2e %8.2e@%d\n",
				p.Op, p.ER, p.SignBER, p.ExponentBER, p.MantissaBER,
				p.MaxBitBER, p.MaxBitIndex)
		}
	}
}

// Fig8 characterizes the WA model's bit error-injection probabilities per
// benchmark. The result maps level -> workload -> per-op profiles (ops
// absent from the workload are omitted).
func Fig8(e *Env) (map[string]map[string][]BERProfile, error) {
	ws, err := e.Workloads()
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string][]BERProfile)
	for _, level := range e.Levels() {
		byWorkload := make(map[string][]BERProfile)
		for _, wl := range ws {
			sums, err := e.WASummaries(level, wl)
			if err != nil {
				return nil, err
			}
			var profiles []BERProfile
			for _, op := range fpu.Ops() {
				if s, ok := sums[op]; ok {
					profiles = append(profiles, profile(op, s))
				}
			}
			byWorkload[wl.Name] = profiles
		}
		out[level.Name] = byWorkload
	}
	return out, nil
}

// RenderFig8 prints the per-benchmark profiles.
func RenderFig8(w io.Writer, r map[string]map[string][]BERProfile) {
	header(w, "Figure 8: bit error-injection probabilities per benchmark (WA-model)")
	for _, lv := range []string{"VR15", "VR20"} {
		fmt.Fprintf(w, "-- %s\n", lv)
		for _, name := range sortedKeys(r[lv]) {
			for _, p := range r[lv][name] {
				fmt.Fprintf(w, "%-8s %-10s ER %9.2e  sign %9.2e  exp %9.2e  mant %9.2e\n",
					name, p.Op, p.ER, p.SignBER, p.ExponentBER, p.MantissaBER)
			}
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
