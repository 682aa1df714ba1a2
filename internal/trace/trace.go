// Package trace captures floating-point operand traces from real workload
// executions. The workload-aware error model characterizes the target
// design with dynamic timing analysis over operands "randomly extracted
// from the executed workload" (Section IV-C.3); this package performs that
// extraction with per-instruction-type reservoir sampling while the
// microarchitectural simulator runs the benchmark.
package trace

import (
	"fmt"

	"teva/internal/cpu"
	"teva/internal/dta"
	"teva/internal/fpu"
	"teva/internal/prng"
	"teva/internal/workloads"
)

// Trace is the operand sample extracted from one workload execution.
type Trace struct {
	// Workload names the benchmark.
	Workload string
	// Pairs holds the sampled operand pairs per FPU instruction.
	Pairs [fpu.NumOps][]dta.Pair
	// OpCounts is the total dynamic count per FPU instruction.
	OpCounts [fpu.NumOps]int64
	// TotalInstr is the total dynamic instruction count of the run.
	TotalInstr int64
	// Cycles is the error-free execution time.
	Cycles uint64

	// fingerprint is Fingerprint as Capture computed it (0: not
	// computed). Written only before the trace is shared, so reading it
	// needs no synchronization.
	fingerprint uint64
}

// FPTotal returns the total dynamic FPU instruction count.
func (t *Trace) FPTotal() int64 {
	var sum int64
	for _, c := range t.OpCounts {
		sum += c
	}
	return sum
}

// OpShare returns op's share of all dynamic instructions.
func (t *Trace) OpShare(op fpu.Op) float64 {
	if t.TotalInstr == 0 {
		return 0
	}
	return float64(t.OpCounts[op]) / float64(t.TotalInstr)
}

// Fingerprint returns a content hash over everything a characterization
// derives from the trace: dynamic counts and the sampled operand pools
// themselves. Two traces with equal fingerprints drive identical DTA, so
// the hash keys on-disk artifacts computed from a trace — a different
// workload scale, trace seed, or sampler change yields a different
// fingerprint and therefore a cache miss instead of a stale hit.
//
// Capture computes it once, so a captured trace must not be modified; a
// trace built by other means is hashed on every call.
func (t *Trace) Fingerprint() uint64 {
	if t.fingerprint != 0 {
		return t.fingerprint
	}
	return t.hash()
}

// hash is the FNV-1a fold behind Fingerprint.
func (t *Trace) hash() uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xFF
			h *= 0x100000001b3
		}
	}
	mix(uint64(t.TotalInstr))
	mix(t.Cycles)
	for op := range t.Pairs {
		mix(uint64(t.OpCounts[op]))
		mix(uint64(len(t.Pairs[op])))
		for _, p := range t.Pairs[op] {
			mix(p.A)
			mix(p.B)
		}
	}
	return h
}

// capturer is the cpu.Injector that samples operands without injecting.
type capturer struct {
	res [fpu.NumOps]*prng.Reservoir[dta.Pair]
}

func (c *capturer) OnWriteback(ev cpu.Event) uint64 {
	if ev.FPUDatapath {
		c.res[ev.FPOp].Offer(dta.Pair{A: ev.A, B: ev.B})
	}
	return 0
}

// Capture runs the workload to completion and extracts up to perOpCap
// operand pairs per instruction type.
func Capture(w *workloads.Workload, perOpCap int, seed uint64) (*Trace, error) {
	src := prng.New(seed)
	cap := &capturer{}
	for i := range cap.res {
		cap.res[i] = prng.NewReservoir[dta.Pair](perOpCap, src.Split())
	}
	c := cpu.New(w.Program, cpu.Config{Injector: cap, TrapFPInvalid: true})
	res := c.Run(1 << 40)
	c.Release()
	if res.Status != cpu.Halted {
		return nil, fmt.Errorf("trace: %s did not halt: %v (%s)", w.Name, res.Status, res.Reason)
	}
	t := &Trace{
		Workload:   w.Name,
		TotalInstr: res.Instret,
		Cycles:     res.Cycles,
	}
	for op := range cap.res {
		t.Pairs[op] = cap.res[op].Items()
		t.OpCounts[op] = res.FPOps[op]
	}
	t.fingerprint = t.hash()
	return t, nil
}
