package sta_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"teva/internal/alu"
	"teva/internal/fpu"
	"teva/internal/netlist"
	"teva/internal/sta"
)

// mergeTopPaths is the per-report-then-merge loop TopPathsAcross
// replaced, kept as its oracle: every report's own top k, concatenated in
// report order and stably sorted by descending delay.
func mergeTopPaths(reports []*sta.Report, k int) (all []sta.Path, truncated bool) {
	for _, r := range reports {
		p, t := r.TopPaths(k)
		truncated = truncated || t
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Delay > all[j].Delay })
	if len(all) > k {
		all = all[:k]
	}
	return all, truncated
}

// samePaths requires got to equal want path by path: delay bits, unit,
// netlist and net sequence.
func samePaths(t *testing.T, tag string, got, want []sta.Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", tag, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.Delay) != math.Float64bits(w.Delay) {
			t.Fatalf("%s: path %d delay %v, want %v", tag, i, g.Delay, w.Delay)
		}
		if g.Unit != w.Unit || g.Netlist != w.Netlist || !slices.Equal(g.Nets, w.Nets) {
			t.Fatalf("%s: path %d is %v, want %v", tag, i, g, w)
		}
	}
}

// TestTopPathsAcrossMatchesMerge checks the floor-pruned search against
// the merge of every report's own top k on the Figure 4 report set (all
// FPU stages plus the integer units) at the -quick and paper path counts.
func TestTopPathsAcrossMatchesMerge(t *testing.T) {
	seeds := []uint64{0xF00D, 1, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		f, err := fpu.New(lib, seed)
		if err != nil {
			t.Fatal(err)
		}
		u, err := alu.New(lib, seed)
		if err != nil {
			t.Fatal(err)
		}
		reports := append(f.StageReports(), u.StageReports()...)
		for _, k := range []int{300, 1000} {
			tag := fmt.Sprintf("seed %#x k=%d", seed, k)
			got, gotTrunc := sta.TopPathsAcross(reports, k)
			want, wantTrunc := mergeTopPaths(reports, k)
			samePaths(t, tag, got, want)
			if gotTrunc != wantTrunc {
				t.Fatalf("%s: truncated %v, want %v", tag, gotTrunc, wantTrunc)
			}
			gd, wd := sta.UnitDistribution(got), sta.UnitDistribution(want)
			for unit, n := range wd {
				if gd[unit] != n {
					t.Fatalf("%s: unit %s has %d paths, want %d", tag, unit, gd[unit], n)
				}
			}
		}
	}
}

// TestTopPathsAcrossMatchesMergeInterleaved repeats the check on reports
// whose path delays interleave — ripple and prefix adders of several
// widths and placement seeds — where each report's floor cuts its search
// mid-way rather than (as on the FPU, whose tail is one stage's) almost
// never or at once.
func TestTopPathsAcrossMatchesMergeInterleaved(t *testing.T) {
	var reports []*sta.Report
	for i, w := range []int{10, 14, 12, 16, 8, 13, 11, 15} {
		b := netlist.NewBuilder(fmt.Sprintf("adder%d", i), lib, uint64(i))
		b.SetUnit(fmt.Sprintf("u%d", i%3))
		x := b.Input(w)
		y := b.Input(w)
		if i%2 == 0 {
			b.Output(b.Sum(b.RippleAdder(x, y, netlist.Const0)))
		} else {
			b.Output(b.Sum(b.PrefixAdder(x, y, netlist.Const0)))
		}
		reports = append(reports, sta.Analyze(b.MustBuild().Compiled(), clkToQ, setup))
	}
	for _, k := range []int{1, 7, 60, 300, 1000} {
		got, gotTrunc := sta.TopPathsAcross(reports, k)
		want, wantTrunc := mergeTopPaths(reports, k)
		samePaths(t, fmt.Sprintf("k=%d", k), got, want)
		if gotTrunc != wantTrunc {
			t.Fatalf("k=%d: truncated %v, want %v", k, gotTrunc, wantTrunc)
		}
	}
}

// TestTopPathsAcrossTieAtBoundary puts the k-th boundary inside a tie
// across two reports: twin netlists (same builder seed, so the same
// delays) each have twelve paths of distinct delays. At odd k the merged
// order pairs every delay's two paths, earlier report first, and the last
// kept path is the earlier report's half of a tie whose other half is cut.
func TestTopPathsAcrossTieAtBoundary(t *testing.T) {
	const paths, k = 12, 11
	twin := func(name string) *sta.Report {
		b := netlist.NewBuilder(name, lib, 5)
		b.SetUnit(name)
		x := b.Input(paths)
		var outs netlist.Bus
		for i, in := range x {
			outs = append(outs, b.BufChain(in, i+1))
		}
		b.Output(outs)
		return sta.Analyze(b.MustBuild().Compiled(), clkToQ, setup)
	}
	a, b := twin("a"), twin("b")
	for _, order := range [][]*sta.Report{{a, b}, {b, a}} {
		first, second := order[0].Netlist, order[1].Netlist
		got, truncated := sta.TopPathsAcross(order, k)
		want, _ := mergeTopPaths(order, k)
		samePaths(t, first+second, got, want)
		if truncated {
			t.Fatal("twelve-path reports must not truncate")
		}
		for i, p := range got {
			owner := first
			if i%2 == 1 {
				owner = second
			}
			if p.Netlist != owner {
				t.Fatalf("%s,%s: path %d from %s, want %s (report order breaks ties)", first, second, i, p.Netlist, owner)
			}
			if i%2 == 1 && math.Float64bits(p.Delay) != math.Float64bits(got[i-1].Delay) {
				t.Fatalf("%s,%s: paths %d and %d are not twins: %v vs %v", first, second, i-1, i, got[i-1].Delay, p.Delay)
			}
		}
	}
}

// TestTopPathsIsPrefixOfLonger checks that each Figure 4 stage report's
// k longest paths come out in descending delay order and are the top k
// of its 4k longest, delay bit for delay bit: a path whose last net is an
// output that also feeds gates (or a primary input wired to an output)
// must not be recorded before longer paths its fanout bound covered.
func TestTopPathsIsPrefixOfLonger(t *testing.T) {
	f, err := fpu.New(lib, 0xF00D)
	if err != nil {
		t.Fatal(err)
	}
	u, err := alu.New(lib, 0xF00D)
	if err != nil {
		t.Fatal(err)
	}
	const k = 300
	for _, r := range append(f.StageReports(), u.StageReports()...) {
		short, st := r.TopPaths(k)
		long, lt := r.TopPaths(4 * k)
		if st || lt {
			t.Fatalf("%s: truncated (k %v, 4k %v)", r.Netlist, st, lt)
		}
		if len(short) != min(k, len(long)) {
			t.Fatalf("%s: %d paths at k, %d at 4k", r.Netlist, len(short), len(long))
		}
		for i, p := range short {
			if i > 0 && p.Delay > short[i-1].Delay {
				t.Fatalf("%s: path %d (%v ps) is longer than path %d (%v ps)", r.Netlist, i, p.Delay, i-1, short[i-1].Delay)
			}
			if math.Float64bits(p.Delay) != math.Float64bits(long[i].Delay) {
				t.Fatalf("%s: path %d is %v ps at k, %v ps at 4k", r.Netlist, i, p.Delay, long[i].Delay)
			}
		}
	}
}
