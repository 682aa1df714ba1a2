// Package stats provides the statistical machinery the evaluation relies
// on: statistical-fault-injection sample sizing (Leveugle et al., the
// source of the paper's 1068-run rule), confidence intervals for observed
// ratios, and small aggregation helpers used when building figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Z95 is the two-sided 95% confidence z-score used throughout the paper.
const Z95 = 1.96

// SampleSize returns the number of fault-injection runs needed to estimate
// an outcome probability within +/-margin at the given z-score, for an
// (effectively infinite) population with worst-case p=0.5:
//
//	n = (z / (2*margin))^2
//
// SampleSize(Z95, 0.03) == 1068, matching Section V of the paper.
func SampleSize(z, margin float64) int {
	if z <= 0 || margin <= 0 {
		panic("stats: z and margin must be positive")
	}
	return int(math.Ceil((z / (2 * margin)) * (z / (2 * margin))))
}

// Proportion is an observed ratio k/n with helpers for confidence bounds.
type Proportion struct {
	Successes int
	Trials    int
}

// Value returns k/n, or 0 for an empty sample.
func (p Proportion) Value() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson returns the Wilson score interval at the given z, which behaves
// sensibly for ratios near 0 or 1 (common for masked/crash probabilities).
// The interval always brackets the observed fraction:
// 0 <= lo <= k/n <= hi <= 1, including the degenerate n=0, k=0 and k=n
// cases. Analytically lo <= v <= hi already holds, but the sqrt term is
// not exactly z/(2n) when v*(1-v) vanishes in floating point, so the
// bounds are clamped to the fraction to keep the contract exact.
func (p Proportion) Wilson(z float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 0
	}
	n := float64(p.Trials)
	v := p.Value()
	z2 := z * z
	den := 1 + z2/n
	center := (v + z2/(2*n)) / den
	half := z / den * math.Sqrt(v*(1-v)/n+z2/(4*n*n))
	lo = math.Max(0, math.Min(center-half, v))
	hi = math.Min(1, math.Max(center+half, v))
	return lo, hi
}

func (p Proportion) String() string {
	return fmt.Sprintf("%d/%d (%.4f)", p.Successes, p.Trials, p.Value())
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of strictly positive xs. Entries <= 0
// are skipped; it returns 0 when no positive entry exists. Figure 10's
// "~250x on average" divergence between models is a geometric mean of
// per-benchmark ratios.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// FoldRatio expresses how far apart two ratios are as a symmetric ">= 1"
// factor: max(a/b, b/a). The paper reports DA-vs-WA divergence this way
// ("differs (higher or lower) by ~250x"). Zero values are clamped to floor
// so that a model injecting zero errors against a non-zero reference still
// produces a finite, large fold change.
func FoldRatio(a, b, floor float64) float64 {
	if floor <= 0 {
		panic("stats: FoldRatio floor must be positive")
	}
	a = math.Max(a, floor)
	b = math.Max(b, floor)
	if a > b {
		return a / b
	}
	return b / a
}

// AbsError returns |ref-est|/|ref| per Eq. 3 of the paper, with the
// convention that a zero reference contributes |est| scaled by the caller's
// choice; here a zero reference with zero estimate is 0, and with a
// non-zero estimate is 1 (100% error).
func AbsError(ref, est float64) float64 {
	if ref == 0 {
		if est == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(ref-est) / math.Abs(ref)
}

// MeanAbsError averages AbsError over paired slices. It panics on length
// mismatch.
func MeanAbsError(ref, est []float64) float64 {
	if len(ref) != len(est) {
		panic("stats: MeanAbsError length mismatch")
	}
	if len(ref) == 0 {
		return 0
	}
	var sum float64
	for i := range ref {
		sum += AbsError(ref[i], est[i])
	}
	return sum / float64(len(ref))
}
