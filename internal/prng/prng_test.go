package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsIndependent(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	src := New(0)
	if src.Uint64() == 0 && src.Uint64() == 0 && src.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestIntnRange(t *testing.T) {
	src := New(7)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := src.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	src := New(11)
	for i := 0; i < 10000; i++ {
		f := src.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	src := New(13)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += src.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestUint64nUniformity(t *testing.T) {
	src := New(17)
	const buckets = 10
	counts := make([]int, buckets)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[src.Uint64n(buckets)]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bucket %d frequency %v deviates from 0.1", b, frac)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	src := New(19)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := src.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(23)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := src.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(31)
	b := a.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams matched %d times", same)
	}
}

func TestReservoirFillsToCapacity(t *testing.T) {
	r := NewReservoir[int](10, New(37))
	for i := 0; i < 5; i++ {
		r.Offer(i)
	}
	if len(r.Items()) != 5 {
		t.Fatalf("expected 5 items, got %d", len(r.Items()))
	}
	for i := 5; i < 100; i++ {
		r.Offer(i)
	}
	if len(r.Items()) != 10 {
		t.Fatalf("expected capacity 10, got %d", len(r.Items()))
	}
}

func TestReservoirUniform(t *testing.T) {
	// Each of 100 stream elements should appear with probability 10/100.
	counts := make([]int, 100)
	const trials = 20000
	src := New(41)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir[int](10, src)
		for i := 0; i < 100; i++ {
			r.Offer(i)
		}
		for _, v := range r.Items() {
			counts[v]++
		}
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-0.1) > 0.02 {
			t.Fatalf("element %d sampled with frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestReservoirPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero capacity": func() { NewReservoir[int](0, New(1)) },
		"nil source":    func() { NewReservoir[int](1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestUint64nGolden(t *testing.T) {
	// Pinned outputs of the Lemire multiply-shift mapping for a fixed
	// seed: any change to the generator core, the seeding expansion, or
	// the interval reduction shows up here before it silently changes
	// every downstream experiment.
	src := New(0xDECAFBAD)
	want := []uint64{358774, 617000, 380696, 279074, 251800, 461255, 689241, 182132}
	for i, w := range want {
		if got := src.Uint64n(1000003); got != w {
			t.Fatalf("Uint64n(1000003) draw %d = %d, want %d", i, got, w)
		}
	}
	// A bound above 2^63 exercises the rejection fringe logic.
	src = New(0xDECAFBAD)
	wantBig := []uint64{0x2dec45980eefc229, 0x23b8b283cc7aa26e, 0x203af72d97087b4d, 0x3b0a5c4f2b03b541}
	for i, w := range wantBig {
		if got := src.Uint64n(1<<63 + 11); got != w {
			t.Fatalf("Uint64n(2^63+11) draw %d = %#x, want %#x", i, got, w)
		}
	}
	src = New(0xDECAFBAD)
	wantIntn := []int{34, 59, 36, 27, 24, 44}
	for i, w := range wantIntn {
		if got := src.Intn(97); got != w {
			t.Fatalf("Intn(97) draw %d = %d, want %d", i, got, w)
		}
	}
}

func TestUint64nDeterministicAcrossSources(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 5000; i++ {
		n := a.Uint64()%100000 + 1
		if b.Uint64()%100000+1 != n {
			t.Fatal("bound streams diverged")
		}
		if av, bv := a.Uint64n(n), b.Uint64n(n); av != bv {
			t.Fatalf("Uint64n(%d) diverged at step %d: %d vs %d", n, i, av, bv)
		}
	}
}

func TestUint64nSmallBoundsExhaustive(t *testing.T) {
	// Every value in [0, n) must be reachable and roughly uniform for
	// small n, including n == 1 (always zero) and powers of two.
	src := New(101)
	for _, n := range []uint64{1, 2, 3, 7, 8, 16, 1000} {
		seen := make(map[uint64]int)
		draws := int(10000)
		for i := 0; i < draws; i++ {
			v := src.Uint64n(n)
			if v >= n {
				t.Fatalf("Uint64n(%d) produced %d", n, v)
			}
			seen[v]++
		}
		if uint64(len(seen)) != n && n <= 16 {
			t.Fatalf("Uint64n(%d) only produced %d distinct values", n, len(seen))
		}
		exp := float64(draws) / float64(n)
		for v, c := range seen {
			if dev := math.Abs(float64(c)-exp) / exp; n <= 16 && dev > 0.2 {
				t.Fatalf("Uint64n(%d): value %d frequency deviates %.0f%%", n, v, 100*dev)
			}
		}
	}
}

// TestHashStringIsFNV1a pins HashString to 64-bit FNV-1a: every seed
// derived from a name depends on it.
func TestHashStringIsFNV1a(t *testing.T) {
	for s, want := range map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	} {
		if got := HashString(s); got != want {
			t.Errorf("HashString(%q) = %#x, want %#x", s, got, want)
		}
	}
}
