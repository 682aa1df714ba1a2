// Package maprange seeds detflow's map-range order cases, which fire in
// every package: true positives carry a `// want detflow` marker, true
// negatives carry nothing, and the suppressed case carries a //teva:allow
// directive.
package maprange

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// appendUnsorted is a true positive: the slice is built in map-iteration
// order and never sorted.
func appendUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want detflow
	}
	return out
}

// appendSorted is a true negative: the collect-keys-then-sort idiom.
func appendSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendHelperSorted is a true negative: sorted through a local helper
// whose name marks it as a sort.
func appendHelperSorted(m map[int]bool) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sortInts(ks)
	return ks
}

func sortInts(xs []int) { sort.Ints(xs) }

// appendSearched is a true positive: a binary search reads the slice but
// does not sort it.
func appendSearched(m map[string]int, x string) int {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want detflow
	}
	return sort.SearchStrings(keys, x)
}

// appendChecked is a true positive: IsSorted only checks the order.
func appendChecked(m map[string]int) bool {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want detflow
	}
	return slices.IsSorted(keys)
}

// emit is a true positive: bytes leave in map-iteration order.
func emit(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want detflow
	}
}

// sumFloats is a true positive: float addition is not associative, so the
// rounded sum depends on iteration order.
func sumFloats(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v // want detflow
	}
	return s
}

// sumInts is a true negative: integer accumulation commutes exactly.
func sumInts(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// countInto is a true negative: building an unordered map from an
// unordered map is order-independent.
func countInto(m map[string]int) map[string]int {
	out := make(map[string]int)
	for k, v := range m {
		out[k] += v
	}
	return out
}

// emitAllowed is the suppressed case.
func emitAllowed(w io.Writer, m map[string]int) {
	for k := range m {
		fmt.Fprintln(w, k) //teva:allow detflow -- diagnostic dump, order irrelevant
	}
}

var _ = []any{appendUnsorted, appendSorted, appendHelperSorted, appendSearched, appendChecked, emit, sumFloats, sumInts, countInto, emitAllowed}
