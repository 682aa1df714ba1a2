// Package shard implements multi-process campaign execution: a
// supervisor that partitions the experiment matrix into content-addressed
// work units, spawns N teva-worker child processes sharing one artifact
// cache directory, and hands units out over a local HTTP/NDJSON protocol
// with time-boxed, heartbeat-extended leases.
//
// The robustness model is ZOFI-style process isolation: a worker that
// crashes, hangs, or is SIGKILLed mid-unit has its lease expire (or its
// process death observed directly) and the unit is reclaimed and retried
// with exponential backoff on a restarted worker. A unit that strikes
// out K workers in a row is quarantined as a named poison unit while the
// rest of the matrix completes; zero live workers degrades gracefully to
// in-process execution, because sharding is a cache-prewarming
// accelerator, never a correctness dependency:
//
//   - Workers run the existing pipeline (internal/experiments over
//     internal/core) against the shared artifact store. The store's
//     provenance keys already make concurrent writers safe, and entries
//     are written atomically, so unit results are just cache entries.
//   - After the prewarm, the supervisor process runs the suite exactly
//     as an unsharded run would. Every unit the workers completed
//     reloads from the cache; every unit they did not (quarantined,
//     drained, all workers dead) is computed in-process. stdout is
//     byte-identical to the single-process run by construction.
//
// The lease state machine lives in Tracker (pure, injected clock — every
// expiry/reclaim/late-completion edge case is unit-testable without
// processes or sleeps); the HTTP protocol in proto.go; the process
// supervision in supervisor.go.
package shard

import "fmt"

// Metric names published on the supervisor's registry. Spawns counts
// worker processes started (initial spawns plus restarts); restarts the
// subset replacing a dead worker; lease expiries leases that timed out
// without a heartbeat; reclaims units returned to the queue (expiry or
// worker death); quarantines units retired as poison; late completions
// results accepted from a worker that no longer held the unit's lease.
const (
	MetricSpawns          = "shard.spawns"
	MetricRestarts        = "shard.restarts"
	MetricLeaseExpiries   = "shard.lease_expiries"
	MetricReclaims        = "shard.reclaims"
	MetricQuarantines     = "shard.quarantines"
	MetricLateCompletions = "shard.late_completions"
	MetricUnitsDone       = "shard.units_done"
	MetricSumMismatches   = "shard.sum_mismatches"
)

// UnitKind names the family of a work unit. Each kind maps onto one
// artifact family in the shared store, so "unit complete" means exactly
// "its artifacts are loadable by the in-process run".
type UnitKind string

const (
	// UnitRandom is one instruction's random-operand DTA characterization
	// at one voltage level (an artifact.SummaryKey "random" entry) — the
	// IA/DA models' substrate and Figure 7's data.
	UnitRandom UnitKind = "random"
	// UnitWA is one (level, workload) workload-operand characterization
	// (per-op artifact.SummaryKey "wl:..." entries) — the WA model's
	// substrate and Figures 5/8's data.
	UnitWA UnitKind = "wa"
	// UnitCell is one (workload, model kind, level) injection-campaign
	// cell (an artifact.CampaignKey entry) — Figures 9/10 and the AVM
	// analysis.
	UnitCell UnitKind = "cell"
)

// Unit is one shard work unit. Units are content-addressed: the ID is a
// pure function of the unit's coordinates, and the unit's result is the
// artifact-store entries those coordinates key — two runs of the same
// unit under the same plan produce byte-identical artifacts.
type Unit struct {
	// Kind selects the unit family.
	Kind UnitKind `json:"kind"`
	// Level is the voltage-reduction level name ("VR15").
	Level string `json:"level"`
	// Op is the fpu.Op ordinal for UnitRandom units.
	Op int `json:"op,omitempty"`
	// OpName is the op's display name, carried for diagnostics only.
	OpName string `json:"op_name,omitempty"`
	// Workload names the benchmark for UnitWA and UnitCell units.
	Workload string `json:"workload,omitempty"`
	// Model is the error-model kind ("DA", "IA", "WA") for UnitCell units.
	Model string `json:"model,omitempty"`
	// Stage orders unit scheduling: the tracker leases stage s+1 units
	// only once every stage <= s unit is done or quarantined, so cells
	// find their models' summaries already cached instead of rebuilding
	// them per worker.
	Stage int `json:"stage"`
}

// ID returns the unit's canonical identity string.
func (u Unit) ID() string {
	switch u.Kind {
	case UnitRandom:
		return fmt.Sprintf("random/%s/%s", u.Level, u.OpName)
	case UnitWA:
		return fmt.Sprintf("wa/%s/%s", u.Level, u.Workload)
	case UnitCell:
		return fmt.Sprintf("cell/%s/%s/%s", u.Workload, u.Model, u.Level)
	default:
		return fmt.Sprintf("%s/%s", u.Kind, u.Level)
	}
}
