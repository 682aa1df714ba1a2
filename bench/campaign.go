package main

import (
	"context"
	"fmt"
	"time"

	"teva/internal/campaign"
	"teva/internal/core"
	"teva/internal/errmodel"
	"teva/internal/experiments"
	"teva/internal/fpu"
	"teva/internal/vscale"
	"teva/internal/workloads"
)

// substrateSeed fixes the FPU the campaign workloads characterize. The
// substrate seed changes the error models and with them the work per
// injected run (the stochastic matrix's cost varies by about ±12% across
// substrate seeds), so the run's seed drives only the injection streams.
const substrateSeed = 0xF00D

// campaignState is a set-up campaign workload: the fig9/avm matrix of 7
// benchmarks × DA/IA/WA × VR15/VR20 with every model prebuilt.
type campaignState struct {
	*base
	eval   *core.Framework // seeded with the run's seed: it draws the injection streams
	single bool
	runs   int
	combos []combo // (level, kind) pairs in presentation order
	models map[string]errmodel.Model
}

type combo struct {
	level vscale.VRLevel
	kind  errmodel.Kind
}

func modelKey(w string, c combo) string { return w + "/" + string(c.kind) + "/" + c.level.Name }

// setupCampaign builds the substrate, characterizes every op at both
// levels (random operands for IA and DA, each benchmark's operands for
// WA), and builds the 42 cells' models from those summaries.
func setupCampaign(o *options, rec *recorder, single bool) (state, error) {
	runs := o.size.stochRuns
	if single {
		runs = o.size.sfiRuns
	}
	opts := experiments.DefaultOptions()
	opts.Scale = o.size.scale
	opts.Runs = runs
	cfg := batchConfig(o)
	cfg.Seed = substrateSeed
	b, err := newBase(o, rec, opts, cfg)
	if err != nil {
		return nil, err
	}
	s := &campaignState{base: b, single: single, runs: runs, models: map[string]errmodel.Model{}}
	err = s.buildModels(rec)
	if err == nil {
		err = rec.do("core.new", "", func() error {
			cfg := b.config(b.store)
			cfg.Seed = o.seed
			var err error
			s.eval, err = core.New(cfg)
			return err
		})
	}
	if err != nil {
		b.close()
		return nil, err
	}
	b.setupSnap = b.reg.Snapshot()
	return s, nil
}

func (s *campaignState) buildModels(rec *recorder) error {
	ctx := context.Background()
	for _, level := range s.env.Levels() {
		for _, kind := range experiments.ModelKinds() {
			s.combos = append(s.combos, combo{level, kind})
		}
		for _, op := range fpu.Ops() {
			err := rec.do("dta.random", op.String(), func() error {
				_, err := s.f.RandomSummaryOpCtx(ctx, level, op)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	for _, w := range s.ws {
		tr, err := s.capture(rec, s.env, w)
		if err != nil {
			return err
		}
		for _, level := range s.env.Levels() {
			for _, op := range fpu.Ops() {
				if len(tr.Pairs[op]) == 0 {
					continue
				}
				err := rec.do("dta.workload", op.String(), func() error {
					_, err := s.f.WorkloadSummaryOpCtx(ctx, level, tr, op)
					return err
				})
				if err != nil {
					return err
				}
			}
		}
	}
	// The summaries are in the store now, so the model builds below
	// reload them instead of re-running DTA.
	for _, c := range s.combos {
		for _, w := range s.ws {
			var m errmodel.Model
			err := rec.do("errmodel.build", string(c.kind), func() error {
				var err error
				switch c.kind {
				case errmodel.DA:
					m, err = s.env.DAModel(c.level)
				case errmodel.IA:
					m, err = s.env.IAModelErr(c.level)
				default:
					m, err = s.env.WAModel(c.level, w)
				}
				return err
			})
			if err != nil {
				return err
			}
			s.models[modelKey(w.Name, c)] = m
		}
	}
	return nil
}

// step runs block k mod 6 of the 42 cells: 7 cells, one per benchmark,
// where block b gives benchmark i the (level, kind) pair (i+b) mod 6. Six
// blocks are one pass, so every run measures the same multiset of cells
// whatever its speed, and every block costs about the same.
func (s *campaignState) step(rec *recorder, t *tally, k int) error {
	for i, w := range s.ws {
		s.cell(rec, t, w, s.combos[(i+k)%len(s.combos)])
	}
	return nil
}

func (s *campaignState) passSteps() int { return len(s.combos) }

// cell runs one campaign cell and records it.
func (s *campaignState) cell(rec *recorder, t *tally, w *workloads.Workload, c combo) {
	m := s.models[modelKey(w.Name, c)]
	p := opResult{key: modelKey(w.Name, c)}
	sp := rec.begin("campaign.cell", w.Name, -1, rec.newTrace())
	t0 := time.Now()
	var r *campaign.Result
	var err error
	if s.single {
		r, err = s.eval.EvaluateSingleCtx(context.Background(), w, m, s.runs)
	} else {
		r, err = s.eval.EvaluateCtx(context.Background(), w, m, s.runs)
	}
	p.secs = time.Since(t0).Seconds()
	rec.end(sp)
	if err == nil {
		p.digest = cellDigest(r)
		err = checkCell(r, s.golden[w.Name].Instret)
		t.work += float64(r.Runs)
	}
	if err != nil {
		p.err = fmt.Errorf("cell %s: %w", p.key, err)
	}
	t.ops = append(t.ops, p)
}
