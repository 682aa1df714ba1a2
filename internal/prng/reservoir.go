package prng

// Reservoir maintains a uniform random sample of fixed capacity over a
// stream of values (Algorithm R). It is used by the trace capturer to keep
// a statistically representative operand sample per instruction type while
// a workload executes billions of operations.
type Reservoir[T any] struct {
	items []T
	seen  int64
	cap   int
	src   *Source
}

// NewReservoir returns a reservoir sampling at most capacity items using the
// given source. It panics if capacity <= 0 or src is nil.
func NewReservoir[T any](capacity int, src *Source) *Reservoir[T] {
	if capacity <= 0 {
		panic("prng: reservoir capacity must be positive")
	}
	if src == nil {
		panic("prng: reservoir requires a source")
	}
	return &Reservoir[T]{cap: capacity, src: src}
}

// Offer presents one stream element to the reservoir.
func (r *Reservoir[T]) Offer(v T) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, v)
		return
	}
	j := r.src.Uint64n(uint64(r.seen))
	if j < uint64(r.cap) {
		r.items[j] = v
	}
}

// Items returns the current sample. The returned slice is owned by the
// reservoir; callers must not mutate it while offering more elements.
func (r *Reservoir[T]) Items() []T { return r.items }
