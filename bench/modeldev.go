package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"teva/internal/artifact"
	"teva/internal/core"
	"teva/internal/dta"
	"teva/internal/experiments"
	"teva/internal/fpu"
	"teva/internal/workloads"
)

// modelDevState measures the paper's model-development phase: cold
// characterization passes, each the work of `teva-experiments -exp
// fig7,fig8` on an empty cache.
type modelDevState struct {
	*base
	mismatch []error
}

func setupModelDev(o *options, rec *recorder) (state, error) {
	opts := experiments.DefaultOptions()
	opts.Scale = o.size.scale
	b, err := newBase(o, rec, opts, batchConfig(o))
	if err != nil {
		return nil, err
	}
	b.setupSnap = b.reg.Snapshot()
	return &modelDevState{base: b}, nil
}

// step is one pass: a fresh framework over an empty store characterizes
// every op at both levels on random operands (Figure 7's data, the IA and DA
// models' input), captures every benchmark's trace and characterizes its
// ops (Figure 8's data, the WA model's input), then derives Figures 7 and
// 8, which now reload those summaries from the store.
func (s *modelDevState) step(rec *recorder, t *tally, _ int) error {
	dir, err := os.MkdirTemp(s.o.dir, "pass-")
	if err != nil {
		return err
	}
	store, err := artifact.OpenIn(dir, s.reg)
	if err != nil {
		return err
	}
	var f *core.Framework
	err = rec.do("core.new", "", func() error {
		var err error
		f, err = core.New(s.config(store))
		return err
	})
	if err != nil {
		return err
	}
	env := experiments.NewEnv(f, s.env.Opts)
	var ws []*workloads.Workload
	err = rec.do("workloads.build", "", func() error {
		var err error
		ws, err = env.Workloads()
		return err
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	sums := map[string]*dta.Summary{}
	unit := func(layer, key string, op fpu.Op, want int, fn func() (*dta.Summary, error)) {
		p := opResult{key: key}
		sp := rec.begin(layer, op.String(), -1, rec.newTrace())
		t0 := time.Now()
		sum, err := fn()
		p.secs = time.Since(t0).Seconds()
		rec.end(sp)
		if err == nil {
			p.digest = summaryDigest(sum)
			err = checkSummary(sum, want)
			t.work += float64(sum.Total)
			sums[key] = sum
		}
		if err != nil {
			p.err = fmt.Errorf("summary %s: %w", key, err)
		}
		t.ops = append(t.ops, p)
	}
	for _, level := range env.Levels() {
		for _, o := range fpu.Ops() {
			unit("dta.random", "random/"+level.Name+"/"+o.String(), o, samples(s.o.size.randomOps, o),
				func() (*dta.Summary, error) { return f.RandomSummaryOpCtx(ctx, level, o) })
		}
	}
	for _, w := range ws {
		tr, err := s.capture(rec, env, w)
		if err != nil {
			return err
		}
		for _, level := range env.Levels() {
			for _, o := range fpu.Ops() {
				if len(tr.Pairs[o]) == 0 {
					continue
				}
				unit("dta.workload", "wl/"+level.Name+"/"+w.Name+"/"+o.String(), o, samples(s.o.size.workloadOps, o),
					func() (*dta.Summary, error) { return f.WorkloadSummaryOpCtx(ctx, level, tr, o) })
			}
		}
	}
	return rec.do("experiments.render", "fig7+fig8", func() error {
		f7, err := experiments.Fig7(env)
		if err != nil {
			return err
		}
		f8, err := experiments.Fig8(env)
		if err != nil {
			return err
		}
		experiments.RenderFig7(io.Discard, f7)
		experiments.RenderFig8(io.Discard, f8)
		s.mismatch = append(s.mismatch, crossCheck(env, ws, f7, f8, sums))
		return nil
	})
}

// samples is the operand count core uses for op: the iterative divider
// gets an eighth.
func samples(n int, op fpu.Op) int {
	if op == fpu.DDiv || op == fpu.SDiv {
		n /= 8
	}
	return max(n, 1)
}

// crossCheck requires Figures 7 and 8 to report the error ratios of the
// summaries the pass computed.
func crossCheck(env *experiments.Env, ws []*workloads.Workload,
	f7 map[string][]experiments.BERProfile, f8 map[string]map[string][]experiments.BERProfile,
	sums map[string]*dta.Summary) error {
	var errs []error
	match := func(fig string, prof []experiments.BERProfile, prefix string) {
		for _, p := range prof {
			key := prefix + p.Op.String()
			s, ok := sums[key]
			if !ok || math.Float64bits(s.ErrorRatio()) != math.Float64bits(p.ER) {
				errs = append(errs, fmt.Errorf("%s: %s error ratio %v does not match the summary", fig, key, p.ER))
			}
		}
	}
	for _, level := range env.Levels() {
		if len(f7[level.Name]) != int(fpu.NumOps) {
			errs = append(errs, fmt.Errorf("fig7 %s: %d ops, want %d", level.Name, len(f7[level.Name]), fpu.NumOps))
		}
		match("fig7", f7[level.Name], "random/"+level.Name+"/")
		for _, w := range ws {
			match("fig8", f8[level.Name][w.Name], "wl/"+level.Name+"/"+w.Name+"/")
		}
	}
	return errors.Join(errs...)
}

func (s *modelDevState) passSteps() int { return 1 }

func (s *modelDevState) check(*recorder, []*tally) error { return errors.Join(s.mismatch...) }
