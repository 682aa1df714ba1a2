package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"teva/internal/campaign"
	"teva/internal/core"
	"teva/internal/dta"
	"teva/internal/stats"
	"teva/internal/workloads"
)

// Spec is the one request form of a run: the teva-experiments flags and
// the teva-serve JSON body both fill it, and Effective is the only
// translation from it to the pipeline's option/config pair. Zero values
// mean "the CLI default". Workers never changes results (the repo-wide
// worker-count-invariance contract) and MaxDuration only decides whether
// a run finishes, so neither is part of the job identity: two clients
// asking for the same matrix at different parallelism share one
// computation.
type Spec struct {
	// Experiments selects experiments by name (Names, or "all"). Empty
	// means all.
	Experiments []string `json:"experiments,omitempty"`
	// Quick/Full apply the -quick/-full presets (quick wins).
	Quick bool `json:"quick,omitempty"`
	Full  bool `json:"full,omitempty"`
	// Scale overrides the workload scale: tiny, small, full.
	Scale string `json:"scale,omitempty"`
	// Runs overrides injections per campaign cell.
	Runs int `json:"runs,omitempty"`
	// Seed is the master seed (0: the 0xF00D default).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the run's parallelism (0: all cores).
	Workers int `json:"workers,omitempty"`
	// Timing selects the DTA engine: wide, exact ("": wide).
	Timing string `json:"timing,omitempty"`
	// Corners is the -corners sweep spec ("": the default set).
	Corners string `json:"corners,omitempty"`
	// TimeoutFactor is the campaign timeout budget as a multiple of the
	// golden cycle count (0: the 2.0 default).
	TimeoutFactor float64 `json:"timeout_factor,omitempty"`
	// MaxDuration is the run's wall-clock budget as a Go duration string
	// ("": unlimited).
	MaxDuration string `json:"max_duration,omitempty"`
}

// DecodeSpec reads one JSON spec and returns it in canonical form.
// Unknown fields, malformed JSON, trailing garbage, and out-of-range
// values are all errors — a request the decoder cannot fully account for
// must be refused, never start a run. Bodies are read up to 64 KiB; real
// specs are a few hundred bytes.
func DecodeSpec(r io.Reader) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(io.LimitReader(r, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("spec: bad spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: bad spec: trailing data after JSON object")
	}
	sp.normalize()
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// normalize rewrites the spec into its canonical form: experiment names
// are trimmed, deduplicated and sorted ("all" collapses the list), and
// the seed and engine defaults are spelled out. It is idempotent;
// Validate, Effective and Key apply it to their own copy, so a spec
// built in Go behaves exactly like its decoded form.
func (sp *Spec) normalize() {
	seen := map[string]bool{}
	var names []string
	for _, n := range sp.Experiments {
		n = strings.TrimSpace(n)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 || seen["all"] {
		names = []string{"all"}
	}
	sp.Experiments = names
	if sp.Seed == 0 {
		sp.Seed = core.DefaultConfig().Seed
	}
	if sp.Timing == "" {
		sp.Timing = dta.EngineWide.String()
	}
}

// Validate rejects specs the pipeline would reject later (or worse,
// accept with garbage semantics), reusing the validation the execution
// layers own: dta.ParseEngine for the engine name, ParseCorners for the
// corner sweep and campaign.ValidateTimeoutFactor for the timeout
// budget.
func (sp Spec) Validate() error {
	sp.normalize()
	for _, n := range sp.Experiments {
		if !KnownExperiment(n) {
			return fmt.Errorf("spec: unknown experiment %q (valid: all, %s)", n, strings.Join(Names(), ", "))
		}
	}
	if _, err := ParseCorners(sp.Corners); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if sp.Runs < 0 || sp.Runs > 1_000_000 {
		return fmt.Errorf("spec: runs %d out of range [0, 1000000]", sp.Runs)
	}
	if sp.Workers < 0 {
		return fmt.Errorf("spec: negative workers %d", sp.Workers)
	}
	if err := campaign.ValidateTimeoutFactor(sp.TimeoutFactor); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if _, _, err := sp.Effective(); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if _, err := sp.Budget(); err != nil {
		return err
	}
	return nil
}

// Budget parses the wall-clock budget ("" means unlimited).
func (sp Spec) Budget() (time.Duration, error) {
	if sp.MaxDuration == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(sp.MaxDuration)
	if err != nil {
		return 0, fmt.Errorf("spec: bad max_duration: %w", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("spec: negative max_duration %s", d)
	}
	return d, nil
}

// Effective translates the spec into the pipeline's option/config pair:
// the preset first (quick wins over full), then the explicit overrides.
// It is the only place flags or a request body become an
// Options/core.Config pair. The
// caller attaches the artifact store and metrics registry.
func (sp Spec) Effective() (Options, core.Config, error) {
	sp.normalize()
	eng, err := dta.ParseEngine(sp.Timing)
	if err != nil {
		return Options{}, core.Config{}, err
	}
	opts := DefaultOptions()
	cfg := core.Config{
		Seed:          sp.Seed,
		Workers:       sp.Workers,
		Timing:        eng,
		TimeoutFactor: sp.TimeoutFactor,
	}
	switch {
	case sp.Quick:
		opts.Scale = workloads.Tiny
		opts.Runs = 24
		opts.Fig4Paths = 300
		opts.Fig6Full = 4000
		opts.Fig6Ks = []int{500, 2000}
		cfg.RandomOperands = 4000
		cfg.WorkloadOperands = 2000
	case sp.Full:
		opts.Runs = stats.SampleSize(stats.Z95, 0.03) // 1068
		cfg.RandomOperands = 100000
		cfg.WorkloadOperands = 40000
	}
	if sp.Scale != "" {
		if opts.Scale, err = workloads.ParseScale(sp.Scale); err != nil {
			return Options{}, core.Config{}, err
		}
	}
	if sp.Runs > 0 {
		opts.Runs = sp.Runs
	}
	return opts, cfg, nil
}

// Key is the spec's content address in plain form: the canonical JSON of
// what it resolves to — Effective's option/config pair with Workers
// zeroed, the normalized experiment selection and the corner spec. Specs
// that resolve to the same run share a key however they spell it
// ({"quick":true} and {"quick":true,"scale":"tiny","runs":24} agree). A spec Validate rejects has no resolved form; its
// key is the error text, which never equals a valid spec's key.
func (sp Spec) Key() string {
	sp.normalize()
	opts, cfg, err := sp.Effective()
	if err != nil {
		return "invalid: " + err.Error()
	}
	cfg.Workers = 0
	b, err := json.Marshal(struct {
		Options     Options
		Config      core.Config
		Experiments []string
		Corners     string
	}{opts, cfg, sp.Experiments, sp.Corners})
	if err != nil {
		return "invalid: " + err.Error()
	}
	return string(b)
}

// JobID is the content-addressed job identifier: a short SHA-256 of Key.
// Identical runs get identical IDs, which is what makes submission
// idempotent across clients and restarts.
func (sp Spec) JobID() string {
	sum := sha256.Sum256([]byte(sp.Key()))
	return "j" + hex.EncodeToString(sum[:8])
}
