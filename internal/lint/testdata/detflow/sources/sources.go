// Package sources seeds detflow's source-use cases: clock, environment
// and math/rand reads in a simulation package. The test harness loads this
// directory under a teva/internal/... import path (where every marker
// below must fire) and under teva/cmd/... and teva/internal/prng/... paths
// (where the whole file must be clean, exercising the allowlist).
package sources

import (
	"math/rand" // want detflow
	"os"
	"time"
)

// wallClock is a true positive under internal/: nondeterministic time.
func wallClock() int64 {
	return time.Now().UnixNano() // want detflow
}

// elapsed is a true positive under internal/: time.Since reads the clock.
func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want detflow
}

// envKnob is a true positive under internal/: hidden environment input.
func envKnob() string {
	return os.Getenv("TEVA_SEED") // want detflow
}

// seededDraw uses the flagged math/rand import (the import line carries
// the finding, not the call sites).
func seededDraw(r *rand.Rand) int {
	return r.Intn(16)
}

// formatDuration is a true negative: manipulating time values without
// reading the clock is fine.
func formatDuration(d time.Duration) string {
	return d.String()
}

// allowedClock is the suppressed case.
func allowedClock() time.Time {
	//teva:allow detflow -- fixture: progress logging only
	return time.Now()
}

// seed is a package-level initializer: it reads the environment outside
// any function body.
var seed = os.Getenv("TEVA_SEED") // want detflow

var _ = []any{wallClock, elapsed, envKnob, seededDraw, formatDuration, allowedClock, seed}
