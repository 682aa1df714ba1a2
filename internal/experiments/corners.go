package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"teva/internal/artifact"
	"teva/internal/cell"
	"teva/internal/sta"
	"teva/internal/vscale"
)

// MetricCornerSTA counts actual multi-corner STA characterizations (one
// per corner computed, not reloaded). On a warm artifact cache a sweep
// leaves this counter untouched — the acceptance check for per-corner
// provenance keys.
const MetricCornerSTA = "experiments.corner_sta_runs"

// CornerRow is the characterization of the FPU at one operating corner.
type CornerRow struct {
	// Corner is the corner's label ("nominal", "VR15", ...).
	Corner string
	// Supply is the effective supply voltage in volts.
	Supply float64
	// Derate is the uniform delay inflation at the corner.
	Derate float64
	// ClockPeriod is the Eq. 1 zero-margin clock at the corner, ps: the
	// slowest pipeline stage's worst path delay after derating.
	ClockPeriod float64
	// WNS is the worst negative slack at the calibrated nominal clock, ps
	// (negative once the corner's critical path no longer fits the clock).
	WNS float64
	// FailingStages counts pipeline stages whose corner-derated worst
	// delay exceeds the nominal clock.
	FailingStages int
	// FailingEndpoints counts endpoints (across all stages) with negative
	// slack at the nominal clock.
	FailingEndpoints int

	// Cached reports whether the row was reloaded from the artifact store
	// instead of analyzed. Excluded from the stored payload (it describes
	// the run, not the corner) and never rendered, so output stays
	// cache-independent.
	Cached bool `json:"-"`
}

// DefaultCorners returns the standard sweep: the nominal corner plus the
// paper's two voltage-reduction bands.
func DefaultCorners() []cell.Corner {
	m := vscale.Default45nm()
	return []cell.Corner{
		cell.Nominal(),
		cell.AtReduction("VR15", m, 0.15),
		cell.AtReduction("VR20", m, 0.20),
	}
}

// ParseCorners parses a comma-separated corner spec: the named corners
// "nominal", "VR15" and "VR20", or a bare supply voltage in volts
// ("0.95"). An empty spec yields DefaultCorners.
func ParseCorners(spec string) ([]cell.Corner, error) {
	if strings.TrimSpace(spec) == "" {
		return DefaultCorners(), nil
	}
	m := vscale.Default45nm()
	var corners []cell.Corner
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		switch strings.ToLower(tok) {
		case "":
			continue
		case "nominal":
			corners = append(corners, cell.Nominal())
		case "vr15":
			corners = append(corners, cell.AtReduction("VR15", m, 0.15))
		case "vr20":
			corners = append(corners, cell.AtReduction("VR20", m, 0.20))
		default:
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("experiments: corner %q is neither a named corner (nominal, VR15, VR20) nor a supply voltage", tok)
			}
			if v <= m.Vth || v > 2*m.VddNominal {
				return nil, fmt.Errorf("experiments: corner supply %gV outside the model's operating range (Vth %gV, nominal %gV)", v, m.Vth, m.VddNominal)
			}
			corners = append(corners, cell.Corner{Name: tok + "V", Voltage: v})
		}
	}
	if len(corners) == 0 {
		return DefaultCorners(), nil
	}
	return corners, nil
}

// CornerSweep characterizes the FPU at every corner: one full STA pass
// (every stage of every pipeline) per corner, fanned out over the
// environment's worker pool. Each corner's row is keyed in the artifact
// store by its full provenance (design seed, supply, temperature, process,
// register parameters), so a warm-cache rerun reloads every row without a
// single analysis — MetricCornerSTA counts only the corners actually
// computed.
func CornerSweep(e *Env, corners []cell.Corner) ([]CornerRow, error) {
	f := e.F
	runs := f.Cfg.Metrics.Counter(MetricCornerSTA)
	rows := make([]CornerRow, len(corners))
	err := forEachLimit(e.ctx, e.drain, e.workers(), len(corners), func(ctx context.Context, i int) error {
		co := corners[i]
		ak := artifact.CornerKey("fpu", f.FPU.Seed, co.Label(),
			co.Voltage, co.TempC, co.Process, f.FPU.Lib.ClockToQ, f.FPU.Lib.Setup)
		row, hit, err := artifact.LoadOrCompute(e.F.Cfg.Artifacts, ak, func() (CornerRow, error) {
			runs.Inc()
			reports := f.FPU.StageReportsCorner(co)
			clk := f.FPU.CLK
			row := CornerRow{
				Corner:      co.Label(),
				Supply:      co.Voltage,
				Derate:      co.Derate(),
				ClockPeriod: sta.ClockPeriod(reports, 1.0),
			}
			if row.Supply == 0 {
				row.Supply = vscale.Default45nm().VddNominal
			}
			row.WNS = clk - row.ClockPeriod
			for _, r := range reports {
				if r.WorstDelay > clk {
					row.FailingStages++
				}
				row.FailingEndpoints += r.FailingEndpoints(clk)
			}
			return row, nil
		})
		row.Cached = hit
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderCorners prints the sweep as a table against the calibrated clock.
func RenderCorners(w io.Writer, e *Env, rows []CornerRow) {
	header(w, "Multi-corner STA characterization")
	fmt.Fprintf(w, "calibrated nominal clock: %.0f ps; %d corners\n\n", e.F.FPU.CLK, len(rows))
	fmt.Fprintf(w, "%-10s %8s %8s %12s %10s %8s %10s\n",
		"corner", "supply", "derate", "clk(corner)", "wns@CLK", "stages", "endpoints")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7.3fV %8.4f %10.0fps %8.0fps %8d %10d\n",
			r.Corner, r.Supply, r.Derate, r.ClockPeriod, r.WNS,
			r.FailingStages, r.FailingEndpoints)
	}
}

// CSVCorners exports the sweep.
func CSVCorners(dir string, rows []CornerRow) error {
	out := [][]string{{"corner", "supply_v", "derate", "clock_period_ps", "wns_ps", "failing_stages", "failing_endpoints"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Corner, ftoa(r.Supply), ftoa(r.Derate), ftoa(r.ClockPeriod),
			ftoa(r.WNS), strconv.Itoa(r.FailingStages), strconv.Itoa(r.FailingEndpoints),
		})
	}
	return writeCSV(dir, "corners.csv", out)
}
