// Package chaos is the fault-injection harness for the pipeline itself.
// TEVA's whole premise is injecting faults into a simulated processor and
// watching how workloads degrade; chaos turns the same discipline on the
// framework: it wraps the artifact store's filesystem (artifact.FS) with
// probabilistic write failures, torn and bit-flipped reads, ENOSPC-style
// errors and injected panics, so the chaos test suite can prove that
// every storage fault degrades to a cache miss, a retried write, or a
// clean per-cell error — never a wrong result and never a hung run.
//
// Fault decisions honor the repo's determinism contract: each decision is
// a pure function of (seed, operation, path, per-path call number), mixed
// through SplitMix64 — no global PRNG whose draw order would depend on
// goroutine scheduling. Two runs over the same store traffic inject the
// same faults, regardless of worker count or interleaving.
package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"teva/internal/artifact"
	"teva/internal/obs"
	"teva/internal/prng"
)

// ErrInjected is the root of every chaos-injected I/O error, so callers
// (and tests) can recognize harness-made failures with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// PanicValue is the value chaos panics with when an injected panic fires;
// the guard barrier surfaces it inside a *guard.PanicError.
const PanicValue = "chaos: injected panic"

// Options sets the per-operation fault probabilities, all in [0, 1].
// Effects are drawn independently (a read may be both delayed to a
// failure and, on the next call, flipped). The zero Options injects
// nothing and the wrapper is a transparent pass-through.
type Options struct {
	// Seed drives every fault decision.
	Seed uint64
	// WriteFail is the probability that one WriteFileAtomic attempt
	// fails (ENOSPC-style) before touching the underlying filesystem —
	// exercising the store's bounded retry.
	WriteFail float64
	// ReadFail is the probability a ReadFile returns an I/O error
	// (degrades to a miss in the artifact store).
	ReadFail float64
	// TornRead is the probability a ReadFile returns only a prefix of
	// the data, as after a crash mid-write on a non-atomic filesystem.
	TornRead float64
	// FlipRead is the probability a ReadFile returns the data with one
	// bit flipped — the case only the payload checksum can catch.
	FlipRead float64
	// Panic is the probability an operation panics instead of returning,
	// modeling a wedged syscall surfacing as a runtime fault. Guard
	// barriers must convert it into a named per-cell error.
	Panic float64
	// PanicOn, when non-empty, restricts injected panics to paths
	// containing the substring (e.g. "campaign-" to panic only on
	// campaign-cell artifacts and leave characterization I/O alone).
	PanicOn string
}

// Metric names published by the harness, so a chaos run's metrics
// snapshot records exactly how much abuse the store absorbed.
const (
	MetricFaultsInjected = "chaos.faults_injected"
	MetricPanicsInjected = "chaos.panics_injected"
)

// FS wraps an artifact.FS with deterministic fault injection.
type FS struct {
	inner artifact.FS
	opts  Options

	mu    sync.Mutex
	calls map[string]uint64

	faults, panics *obs.Counter
}

// NewFS wraps inner (nil means the real filesystem) with the given fault
// options, reporting injections on reg's chaos.* counters (nil reg is
// valid and records nothing).
func NewFS(inner artifact.FS, opts Options, reg *obs.Registry) *FS {
	if inner == nil {
		inner = artifact.OSFS{}
	}
	return &FS{
		inner:  inner,
		opts:   opts,
		calls:  make(map[string]uint64),
		faults: reg.Counter(MetricFaultsInjected),
		panics: reg.Counter(MetricPanicsInjected),
	}
}

// OpenStore opens an artifact store at dir whose filesystem is wrapped
// with chaos faults — the one-line entry point for the chaos test suite.
func OpenStore(dir string, reg *obs.Registry, opts Options) (*artifact.Store, error) {
	return artifact.OpenFS(dir, reg, NewFS(nil, opts, reg))
}

// splitmix64 is the standard SplitMix64 finalizer-style mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw returns a deterministic uniform float64 in [0, 1) for the n-th
// occurrence of (op, path), independent per effect salt.
func draw(seed uint64, op, path string, n uint64, salt uint64) float64 {
	u := splitmix64(seed ^ prng.HashString(op+"\x00"+path) ^ splitmix64(n+salt))
	return float64(u>>11) / (1 << 53)
}

// next returns the 1-based call number for (op, path). Per-path counters
// make each decision independent of how operations on other paths
// interleave, which is what keeps injection deterministic under a
// concurrent matrix build.
func (c *FS) next(op, path string) uint64 {
	key := op + "\x00" + path
	c.mu.Lock()
	c.calls[key]++
	n := c.calls[key]
	c.mu.Unlock()
	return n
}

// maybePanic fires an injected panic for the call when the dice say so.
func (c *FS) maybePanic(op, path string, n uint64) {
	if c.opts.Panic <= 0 {
		return
	}
	if c.opts.PanicOn != "" && !strings.Contains(path, c.opts.PanicOn) {
		return
	}
	if draw(c.opts.Seed, op, path, n, 5) < c.opts.Panic {
		c.panics.Inc()
		panic(fmt.Sprintf("%s (%s %s, call %d)", PanicValue, op, path, n))
	}
}

// MkdirAll implements artifact.FS; directory creation is left reliable
// (a store that cannot even open is outside the failure model).
func (c *FS) MkdirAll(dir string) error { return c.inner.MkdirAll(dir) }

// SweepTmp implements artifact.FS; the sweep is left reliable (it only
// removes debris, and a skipped file is reswept on the next open).
func (c *FS) SweepTmp(dir string, age time.Duration) int { return c.inner.SweepTmp(dir, age) }

// ReadFile implements artifact.FS with read-side faults: hard errors,
// torn (truncated) reads, and single-bit flips.
func (c *FS) ReadFile(name string) ([]byte, error) {
	n := c.next("read", name)
	c.maybePanic("read", name, n)
	if draw(c.opts.Seed, "read", name, n, 1) < c.opts.ReadFail {
		c.faults.Inc()
		return nil, fmt.Errorf("%w: read %s", ErrInjected, name)
	}
	data, err := c.inner.ReadFile(name)
	if err != nil {
		return data, err
	}
	if len(data) > 0 && draw(c.opts.Seed, "read", name, n, 2) < c.opts.TornRead {
		c.faults.Inc()
		cut := 1 + int(splitmix64(c.opts.Seed^prng.HashString(name)^n)%uint64(len(data)))
		if cut >= len(data) {
			cut = len(data) - 1
		}
		return append([]byte(nil), data[:cut]...), nil
	}
	if len(data) > 0 && draw(c.opts.Seed, "read", name, n, 3) < c.opts.FlipRead {
		c.faults.Inc()
		flipped := append([]byte(nil), data...)
		bit := splitmix64(c.opts.Seed^prng.HashString(name)^(n+77)) % uint64(len(data)*8)
		flipped[bit/8] ^= 1 << (bit % 8)
		return flipped, nil
	}
	return data, nil
}

// WriteFileAtomic implements artifact.FS with ENOSPC-style write
// failures. A failed attempt never reaches the inner filesystem, so it
// leaves no partial state — matching the contract the real
// WriteFileAtomic provides.
func (c *FS) WriteFileAtomic(dir, name string, data []byte) error {
	n := c.next("write", name)
	c.maybePanic("write", name, n)
	if draw(c.opts.Seed, "write", name, n, 4) < c.opts.WriteFail {
		c.faults.Inc()
		return fmt.Errorf("%w: write %s: no space left on device", ErrInjected, name)
	}
	return c.inner.WriteFileAtomic(dir, name, data)
}

// Injected returns how many I/O faults and panics the harness has fired.
func (c *FS) Injected() (faults, panics int64) {
	return c.faults.Value(), c.panics.Value()
}
