package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"teva/internal/campaign"
	"teva/internal/errmodel"
	"teva/internal/fpu"
)

// CSV export: every figure's data as the plottable series the paper's
// charts are drawn from. Files land in the chosen directory, one per
// experiment.

// writeCSV writes rows (first row = header) to dir/name.
func writeCSV(dir, name string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CSVTable2 exports the benchmark inventory.
func CSVTable2(dir string, rows []Table2Row) error {
	out := [][]string{{"app", "input", "instructions", "fp_share", "criteria"}}
	for _, r := range rows {
		out = append(out, []string{
			r.App, r.Input, strconv.FormatInt(r.Instructions, 10),
			ftoa(r.FPShare), r.Criteria,
		})
	}
	return writeCSV(dir, "table2.csv", out)
}

// CSVFig4 exports the path distribution and per-unit worst delays.
func CSVFig4(dir string, r *Fig4Result) error {
	out := [][]string{{"unit", "paths_in_tail", "worst_delay_ps", "slack_ps"}}
	units := map[string]bool{}
	for g := range r.ByGroup {
		units[g] = true
	}
	for g := range r.UnitWorst {
		units[g] = true
	}
	names := make([]string, 0, len(units))
	for g := range units {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		out = append(out, []string{
			g, strconv.Itoa(r.ByGroup[g]),
			ftoa(r.UnitWorst[g]), ftoa(r.CLK - r.UnitWorst[g]),
		})
	}
	return writeCSV(dir, "fig4.csv", out)
}

// CSVFig5 exports the flip-multiplicity histogram.
func CSVFig5(dir string, r *Fig5Result) error {
	out := [][]string{{"level", "one_bit", "two_bits", "more_bits"}}
	for _, lv := range []string{"VR15", "VR20"} {
		if _, ok := r.One[lv]; !ok {
			continue
		}
		out = append(out, []string{lv, ftoa(r.One[lv]), ftoa(r.Two[lv]), ftoa(r.More[lv])})
	}
	return writeCSV(dir, "fig5.csv", out)
}

// CSVFig6 exports the convergence study: the AE series plus the
// full-trace per-bit BER vector.
func CSVFig6(dir string, r *Fig6Result) error {
	out := [][]string{{"k", "mean_abs_error"}}
	ks := make([]int, 0, len(r.AE))
	for k := range r.AE {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		out = append(out, []string{strconv.Itoa(k), ftoa(r.AE[k])})
	}
	if err := writeCSV(dir, "fig6_ae.csv", out); err != nil {
		return err
	}
	ber := [][]string{{"bit", "ber"}}
	for i, b := range r.FullBER {
		ber = append(ber, []string{strconv.Itoa(i), ftoa(b)})
	}
	return writeCSV(dir, "fig6_ber.csv", ber)
}

// CSVFig7 exports the IA characterization.
func CSVFig7(dir string, r map[string][]BERProfile) error {
	out := [][]string{{"level", "op", "er", "sign_ber", "exponent_ber", "mantissa_ber", "max_bit_ber", "max_bit"}}
	for _, lv := range []string{"VR15", "VR20"} {
		for _, p := range r[lv] {
			out = append(out, []string{
				lv, p.Op.String(), ftoa(p.ER), ftoa(p.SignBER),
				ftoa(p.ExponentBER), ftoa(p.MantissaBER),
				ftoa(p.MaxBitBER), strconv.Itoa(p.MaxBitIndex),
			})
		}
	}
	return writeCSV(dir, "fig7.csv", out)
}

// CSVFig8 exports the WA characterization per benchmark.
func CSVFig8(dir string, r map[string]map[string][]BERProfile) error {
	out := [][]string{{"level", "workload", "op", "er", "sign_ber", "exponent_ber", "mantissa_ber"}}
	for _, lv := range []string{"VR15", "VR20"} {
		for _, name := range sortedKeys(r[lv]) {
			for _, p := range r[lv][name] {
				out = append(out, []string{
					lv, name, p.Op.String(), ftoa(p.ER),
					ftoa(p.SignBER), ftoa(p.ExponentBER), ftoa(p.MantissaBER),
				})
			}
		}
	}
	return writeCSV(dir, "fig8.csv", out)
}

// CSVFig9 exports the outcome distributions (plus crash taxonomy).
func CSVFig9(dir string, cs *CampaignSet) error {
	out := [][]string{{"app", "model", "level", "masked", "sdc", "crash", "timeout", "avm", "crash_kinds"}}
	for _, name := range cs.Order {
		for _, level := range []string{"VR15", "VR20"} {
			for _, kind := range ModelKinds() {
				r := cs.Get(name, kind, level)
				if r == nil {
					continue
				}
				kinds := ""
				for _, k := range sortedKeys(r.CrashKinds) {
					if kinds != "" {
						kinds += ";"
					}
					kinds += fmt.Sprintf("%s=%d", k, r.CrashKinds[k])
				}
				out = append(out, []string{
					name, string(kind), level,
					ftoa(r.Fraction(campaign.Masked)), ftoa(r.Fraction(campaign.SDC)),
					ftoa(r.Fraction(campaign.Crash)), ftoa(r.Fraction(campaign.Timeout)),
					ftoa(r.AVM()), kinds,
				})
			}
		}
	}
	return writeCSV(dir, "fig9.csv", out)
}

// CSVFig10 exports the error-ratio comparison.
func CSVFig10(dir string, order []string, r *Fig10Result) error {
	out := [][]string{{"app", "level", "da_er", "ia_er", "wa_er", "da_fold", "ia_fold"}}
	for _, name := range order {
		for _, level := range []string{"VR15", "VR20"} {
			key := name + "/" + level
			out = append(out, []string{
				name, level,
				ftoa(r.ER[cellKey(name, errmodel.DA, level)]),
				ftoa(r.ER[cellKey(name, errmodel.IA, level)]),
				ftoa(r.ER[cellKey(name, errmodel.WA, level)]),
				ftoa(r.DAFold[key]), ftoa(r.IAFold[key]),
			})
		}
	}
	return writeCSV(dir, "fig10.csv", out)
}

// CSVAVM exports the vulnerability analysis.
func CSVAVM(dir string, cs *CampaignSet, r *AVMResult) error {
	out := [][]string{{"app", "level", "avm_da", "avm_ia", "avm_wa", "safe_level", "power_savings"}}
	for _, name := range cs.Order {
		for _, level := range []string{"VR15", "VR20"} {
			out = append(out, []string{
				name, level,
				ftoa(r.AVM[cellKey(name, errmodel.DA, level)]),
				ftoa(r.AVM[cellKey(name, errmodel.IA, level)]),
				ftoa(r.AVM[cellKey(name, errmodel.WA, level)]),
				r.SafeLevel[name], ftoa(r.PowerSavings[name]),
			})
		}
	}
	return writeCSV(dir, "avm.csv", out)
}

// CSVSources exports the delay-source ladder.
func CSVSources(dir string, rows []SourceRow) error {
	out := [][]string{{"source", "delay_scale", "er"}}
	for _, r := range rows {
		out = append(out, []string{r.Name, ftoa(r.Scale), ftoa(r.ER)})
	}
	return writeCSV(dir, "sources.csv", out)
}

// CSVPower exports the energy study.
func CSVPower(dir string, r *PowerResult) error {
	out := [][]string{{"op", "energy_fj"}}
	for op, e := range r.Profile.PerOp {
		out = append(out, []string{fpu.Op(op).String(), ftoa(e)})
	}
	out = append(out, []string{"int-op", ftoa(r.Profile.IntOp)})
	if err := writeCSV(dir, "power_ops.csv", out); err != nil {
		return err
	}
	wl := [][]string{{"workload", "fpu_energy_fj", "int_energy_fj", "fpu_share"}}
	names := make([]string, 0, len(r.PerWorkload))
	for n := range r.PerWorkload {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b := r.PerWorkload[n]
		wl = append(wl, []string{n, ftoa(b.FPUEnergyFJ), ftoa(b.IntEnergyFJ), ftoa(b.FPUShare)})
	}
	return writeCSV(dir, "power_workloads.csv", wl)
}

// CSVProcess exports the die Monte-Carlo.
func CSVProcess(dir string, r *ProcessResult) error {
	out := [][]string{{"die", "er"}}
	for i, er := range r.ERs {
		out = append(out, []string{strconv.Itoa(i + 1), ftoa(er)})
	}
	return writeCSV(dir, "process.csv", out)
}

// CSVValidate exports the model-validation rows.
func CSVValidate(dir string, rows []ValidationRow) error {
	out := [][]string{{"workload", "op", "predicted_er", "observed_er"}}
	for _, r := range rows {
		out = append(out, []string{r.Workload, r.Op.String(), ftoa(r.Predicted), ftoa(r.Observed)})
	}
	return writeCSV(dir, "validate.csv", out)
}

// CSVAdders exports the architecture ablation.
func CSVAdders(dir string, rows []AdderRow) error {
	out := [][]string{{"architecture", "gates", "sta_ps", "mean_arrival_ps", "max_arrival_ps", "fail_at_85pct"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Name, strconv.Itoa(r.Gates), ftoa(r.STAps),
			ftoa(r.MeanArr), ftoa(r.MaxArr), ftoa(r.FailAt85),
		})
	}
	return writeCSV(dir, "adders.csv", out)
}

// CSVDesign exports the design report.
func CSVDesign(dir string, rows []DesignRow) error {
	out := [][]string{{"op", "stage", "repeat", "gates", "depth", "delay_ps", "clk_share"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Op.String(), r.Stage, strconv.Itoa(r.Repeat), strconv.Itoa(r.Gates),
			strconv.Itoa(r.Depth), ftoa(r.DelayPS), ftoa(r.CLKShare),
		})
	}
	return writeCSV(dir, "design.csv", out)
}
