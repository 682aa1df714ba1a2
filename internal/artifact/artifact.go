// Package artifact implements a content-addressed on-disk store for the
// expensive intermediate products of the experiment pipeline: DTA
// characterization summaries, injection-campaign results and the whole
// results of the netlist-only experiments (corner reports, Figure 4, the
// adder ablation) and the power study's energy profile. A store maps
// a canonical key (the full set of inputs that determine an artifact —
// op, delay scale, seed, sample count for DTA summaries; workload, model
// kind, voltage level, run count, seed for campaign cells) to a JSON
// envelope on disk, so a re-run of the experiment matrix reloads every
// cell instead of recomputing it.
//
// Design points:
//
//   - Entries are written atomically (temp file + rename), so a killed
//     run never leaves a half-written artifact behind.
//   - Every envelope carries a schema version, its own canonical key and
//     a SHA-256 checksum of the payload; a version mismatch, key mismatch
//     (hash collision), checksum mismatch (torn or bit-flipped entry) or
//     undecodable file is treated as a cache miss, never as an error and
//     never as a silently-wrong hit.
//   - Writes retry with bounded backoff before reporting failure, so a
//     transient I/O hiccup (briefly full disk, NFS blip) costs a pause
//     instead of a lost cache entry. A write that still fails is counted
//     and surfaced as an error — results are unaffected either way, the
//     entry is simply recomputed next run.
//   - Filesystem access goes through the FS interface, so the chaos
//     harness (internal/chaos) can inject faults deterministically and
//     prove every failure mode degrades to a miss or a counted error.
//   - Hit/miss/write/retry tallies are obs registry counters (atomic
//     adds), so a progress reporter can poll them from another goroutine
//     and a -metrics-out snapshot includes cache behavior for free.
//
// A nil *Store is valid and behaves as an always-miss, drop-writes store,
// so call sites need no conditionals when caching is disabled.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"teva/internal/obs"
)

// SchemaVersion is bumped whenever the serialized envelope layout of any
// artifact kind changes incompatibly (field renames, semantic changes to
// stored statistics). Entries written under another version are treated
// as misses, so stale caches age out instead of corrupting results.
// Version 2 added the payload checksum.
const SchemaVersion = 2

// Key identifies one artifact. Kind namespaces the artifact family; ID is
// the canonical, human-readable encoding of every input that determines
// the artifact's content.
type Key struct {
	Kind string
	ID   string
}

// SummaryKey builds the key for a DTA characterization summary.
// Source names the operand stream ("random", "wl:is:...", "fig6/K1000/r2"),
// op the analyzed instruction, scale the delay inflation of the corner,
// seed the stream seed, samples the analyzed pair count, and exact the
// timing engine. The scale is encoded in hex float form so the key is
// exact, not subject to decimal rounding.
func SummaryKey(source, op string, scale float64, seed uint64, samples int, exact bool) Key {
	return Key{
		Kind: "dta-summary",
		ID: fmt.Sprintf("src=%s|op=%s|scale=%s|seed=%#x|n=%d|exact=%v",
			source, op, hexFloat(scale), seed, samples, exact),
	}
}

// CornerKey builds the key for one multi-corner STA characterization
// cell. Design names the analyzed unit ("fpu"), seed reproduces its exact
// placement, and the corner's full operating point (supply, temperature,
// process multiplier) plus the register parameters are encoded in hex
// float form so the provenance is exact per corner — two corners that
// differ in any parameter never alias.
func CornerKey(design string, seed uint64, corner string, voltage, tempC, process, clkToQ, setup float64) Key {
	return Key{
		Kind: "sta-corner",
		ID: fmt.Sprintf("design=%s|seed=%#x|corner=%s|v=%s|t=%s|p=%s|clk2q=%s|setup=%s",
			design, seed, corner, hexFloat(voltage), hexFloat(tempC), hexFloat(process), hexFloat(clkToQ), hexFloat(setup)),
	}
}

// AdderKey builds the key for the adder-architecture ablation. Its
// netlists and placement seed are fixed, so its result is a function of
// the run seed its operand streams derive from, the transition count n
// and the register parameters alone.
func AdderKey(seed uint64, n int, clkToQ, setup float64) Key {
	return Key{
		Kind: "adders",
		ID:   fmt.Sprintf("seed=%#x|n=%d|clk2q=%s|setup=%s", seed, n, hexFloat(clkToQ), hexFloat(setup)),
	}
}

// Fig4Key builds the key for Figure 4's longest-path census: the design
// seed fixes every netlist and the calibrated clock, paths is the number
// of paths searched, and the register parameters bound every path delay.
// The entry holds the census only, not the paths' net lists; its kind,
// "fig4-census", differs from the whole-result "fig4" entries older
// stores hold, so those are never read as a census.
func Fig4Key(seed uint64, paths int, clkToQ, setup float64) Key {
	return Key{
		Kind: "fig4-census",
		ID:   fmt.Sprintf("seed=%#x|paths=%d|clk2q=%s|setup=%s", seed, paths, hexFloat(clkToQ), hexFloat(setup)),
	}
}

// PowerKey builds the key for the power study's per-op energy profile:
// the design seed fixes every netlist, the calibrated clock and the
// operand streams, samples is the per-op pair count, and the register
// parameters place every nominal-corner transition. Cell energies and the
// timing engine's energy accounting are not in the key: a change to
// either must bump SchemaVersion.
func PowerKey(seed uint64, samples int, clkToQ, setup float64) Key {
	return Key{
		Kind: "power",
		ID:   fmt.Sprintf("seed=%#x|samples=%d|clk2q=%s|setup=%s", seed, samples, hexFloat(clkToQ), hexFloat(setup)),
	}
}

// hexFloat encodes v exactly (hex float form), so a key never depends on
// decimal rounding.
func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// CampaignKey builds the key for one injection-campaign cell. The cfg tag
// folds in every framework setting that shapes the injected model
// (characterization sample sizes, workload scale, timing engine), so a
// cache directory can be shared between -quick and full runs safely.
func CampaignKey(workload, kind, level string, runs int, seed uint64, single bool, cfg string) Key {
	return Key{
		Kind: "campaign",
		ID: fmt.Sprintf("wl=%s|model=%s|level=%s|runs=%d|seed=%#x|single=%v|cfg=%s",
			workload, kind, level, runs, seed, single, cfg),
	}
}

// filename derives the content-addressed file name: the artifact kind
// plus a truncated SHA-256 of the canonical ID.
func (k Key) filename() string {
	h := sha256.Sum256([]byte(k.Kind + "\x00" + k.ID))
	return k.Kind + "-" + hex.EncodeToString(h[:12]) + ".json"
}

// FS abstracts the filesystem operations the store performs, so the
// chaos harness can wrap them with deterministic fault injection. The
// production implementation is OSFS.
type FS interface {
	// MkdirAll creates the store directory (and parents) if needed.
	MkdirAll(dir string) error
	// ReadFile returns the full contents of the named file.
	ReadFile(name string) ([]byte, error)
	// WriteFileAtomic writes data to dir/name atomically (temp file +
	// rename): a concurrent reader observes either the old entry or the
	// new one, never a torn write, and a failed write leaves no temp
	// file behind.
	WriteFileAtomic(dir, name string, data []byte) error
	// SweepTmp removes stale temp files in dir older than age — debris a
	// crashed or SIGKILLed writer left between CreateTemp and rename. It
	// returns the number removed; errors on individual files are skipped
	// (another sweeper may have raced us to them).
	SweepTmp(dir string, age time.Duration) int
}

// OSFS is the production FS backed by the os package.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFileAtomic implements FS: temp file in the same directory, write,
// close, rename. Any failure removes the temp file.
func (OSFS) WriteFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return werr
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// SweepTmp implements FS: any ".tmp-*" file whose mtime is older than
// age cannot belong to a live writer (atomic writes are milliseconds,
// and the threshold is minutes), so it is debris from a killed process.
// Fresh temp files are left alone — with sharded workers, other live
// processes are writing into the same directory right now.
func (OSFS) SweepTmp(dir string, age time.Duration) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	// File mtimes are wall-clock by nature; the sweep only removes debris
	// and never feeds a simulation result, so the clock read is harmless.
	cutoff := time.Now().Add(-age) //teva:allow detflow -- mtime-based debris sweep, no result dataflow
	swept := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil {
			swept++
		}
	}
	return swept
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts successful loads, Misses failed ones (absent entries
	// plus the Corrupt subset), Writes persisted artifacts.
	Hits, Misses, Writes int64
	// Corrupt counts entries that existed but failed to decode or
	// carried a stale schema, mismatched key, or bad payload checksum.
	Corrupt int64
	// Retries counts Save attempts repeated after a transient write
	// failure; WriteErrors counts Saves that failed even after retrying.
	Retries, WriteErrors int64
}

func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses (%d corrupt), %d written (%d retries, %d write errors)",
		s.Hits, s.Misses, s.Corrupt, s.Writes, s.Retries, s.WriteErrors)
}

// Metric names published by the store. The obsnames analyzer requires
// registration through constants so the namespace is fixed at compile time.
const (
	MetricHits        = "artifact.hits"
	MetricMisses      = "artifact.misses"
	MetricWrites      = "artifact.writes"
	MetricCorrupt     = "artifact.corrupt"
	MetricRetries     = "artifact.retries"
	MetricWriteErrors = "artifact.write_errors"
	MetricTmpSwept    = "artifact.tmp_swept"
)

// tmpSweepAge is the staleness threshold for the open-time temp-file
// sweep. An atomic write holds its temp file for milliseconds; a temp
// file this old can only be debris from a writer that died between
// CreateTemp and rename (a SIGKILLed shard worker, an OOM-killed run).
// The margin keeps the sweep safe against every live concurrent writer.
const tmpSweepAge = 15 * time.Minute

// saveAttempts bounds the write retry loop: the initial attempt plus two
// retries with 1ms/4ms backoff. Transient failures (ENOSPC races, NFS
// blips, chaos-injected faults) usually clear within that; anything more
// persistent is not worth stalling the pipeline over, because a failed
// save only costs a recompute on the next run.
const saveAttempts = 3

// saveBackoff returns the pause before retry attempt n (1-based).
func saveBackoff(n int) time.Duration {
	return time.Millisecond << (2 * (n - 1)) // 1ms, 4ms, ...
}

// Store is an on-disk artifact cache rooted at one directory.
type Store struct {
	dir string
	fs  FS
	// sleep pauses between write retries; injectable so tests (and the
	// chaos suite) don't wait out real backoff.
	sleep func(time.Duration)

	hits, misses, writes, corrupt *obs.Counter
	retries, writeErrors          *obs.Counter
	// warnOnce limits the stderr warning for failed writes to one per
	// store: every failure is counted on artifact.write_errors, and a
	// degraded disk would otherwise print a line per entry.
	warnOnce sync.Once
}

// Open creates (if needed) and opens a store rooted at dir, with its
// counters on a private registry (Stats still works; nothing is exported).
func Open(dir string) (*Store, error) { return OpenIn(dir, nil) }

// OpenIn is Open with the store's counters registered on reg, so a
// -metrics-out snapshot reports cache behavior under the artifact.*
// names. A nil reg falls back to a private registry.
func OpenIn(dir string, reg *obs.Registry) (*Store, error) {
	return OpenFS(dir, reg, OSFS{})
}

// OpenFS is OpenIn over an explicit filesystem — the seam the chaos
// harness uses to inject faults underneath an otherwise-unmodified store.
func OpenFS(dir string, reg *obs.Registry, fs FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if reg == nil {
		reg = obs.NewRegistry(nil)
	}
	// Sweep debris from crashed writers before use. Multiple processes
	// opening the same directory (sharded workers) race benignly: each
	// file is removed by whichever sweeper gets there first.
	if n := fs.SweepTmp(dir, tmpSweepAge); n > 0 {
		reg.Counter(MetricTmpSwept).Add(int64(n))
	}
	return &Store{
		dir:         dir,
		fs:          fs,
		sleep:       time.Sleep,
		hits:        reg.Counter(MetricHits),
		misses:      reg.Counter(MetricMisses),
		writes:      reg.Counter(MetricWrites),
		corrupt:     reg.Counter(MetricCorrupt),
		retries:     reg.Counter(MetricRetries),
		writeErrors: reg.Counter(MetricWriteErrors),
	}, nil
}

// SetSleep replaces the retry backoff pause (nil restores time.Sleep).
// Tests use this to make write-failure paths instantaneous.
func (s *Store) SetSleep(sleep func(time.Duration)) {
	if s == nil {
		return
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	s.sleep = sleep
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats returns a snapshot of the counters (zero for a nil store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:        s.hits.Value(),
		Misses:      s.misses.Value(),
		Writes:      s.writes.Value(),
		Corrupt:     s.corrupt.Value(),
		Retries:     s.retries.Value(),
		WriteErrors: s.writeErrors.Value(),
	}
}

// envelope is the on-disk JSON layout. Sum is the hex SHA-256 of the
// payload bytes: without it, a single flipped bit inside a numeric field
// would still parse as valid JSON and surface as a silently-wrong hit.
type envelope struct {
	Schema  int             `json:"schema"`
	Kind    string          `json:"kind"`
	ID      string          `json:"id"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// payloadSum computes the envelope checksum of payload bytes.
func payloadSum(body []byte) string {
	h := sha256.Sum256(body)
	return hex.EncodeToString(h[:])
}

// Load looks the key up and decodes its payload into out. It returns
// false on any miss: absent entry, unreadable file, stale schema, key
// collision, checksum mismatch, or payload that does not decode into out.
// Corrupt entries never surface as errors — the caller just recomputes
// and overwrites.
func (s *Store) Load(k Key, out any) bool {
	if s == nil {
		return false
	}
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, k.filename()))
	if err != nil {
		s.misses.Add(1)
		return false
	}
	var env envelope
	if json.Unmarshal(raw, &env) != nil ||
		env.Schema != SchemaVersion || env.Kind != k.Kind || env.ID != k.ID ||
		env.Sum != payloadSum(env.Payload) ||
		json.Unmarshal(env.Payload, out) != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// Save persists the payload under the key, atomically and with bounded
// retry: a transient write failure is retried saveAttempts times with
// short backoff (each retry counted on artifact.retries) before the Save
// reports an error (counted on artifact.write_errors, and the store's
// first one warned about on stderr). Failures never corrupt the store —
// the atomic write discipline means the previous entry, if any, stays
// intact. Saving on a nil store is a no-op.
func (s *Store) Save(k Key, payload any) error {
	if s == nil {
		return nil
	}
	body, err := json.Marshal(payload)
	if err != nil {
		// Marshal failures are deterministic, not transient: no retry.
		return s.failed(fmt.Errorf("artifact: marshal %s: %w", k.Kind, err))
	}
	raw, err := json.Marshal(envelope{
		Schema: SchemaVersion, Kind: k.Kind, ID: k.ID,
		Sum: payloadSum(body), Payload: body,
	})
	if err != nil {
		return s.failed(fmt.Errorf("artifact: marshal envelope: %w", err))
	}
	var werr error
	for attempt := 1; attempt <= saveAttempts; attempt++ {
		if attempt > 1 {
			s.retries.Add(1)
			s.sleep(saveBackoff(attempt - 1))
		}
		if werr = s.fs.WriteFileAtomic(s.dir, k.filename(), raw); werr == nil {
			s.writes.Add(1)
			return nil
		}
	}
	return s.failed(fmt.Errorf("artifact: write %s (%d attempts): %w", k.Kind, saveAttempts, werr))
}

// failed counts a failed Save and returns its error. The store's first
// failure is also printed on stderr, so a read-only cache directory is
// not silent: losing a write costs only a recompute next run, so it never
// fails the caller's work.
func (s *Store) failed(err error) error {
	s.writeErrors.Add(1)
	s.warnOnce.Do(func() {
		fmt.Fprintf(os.Stderr, "teva: artifact cache write failed (non-fatal, counted on %s): %v\n",
			MetricWriteErrors, err)
	})
	return err
}

// LoadOrCompute returns the artifact stored under k, or computes it and
// stores the result; hit reports a reload. A compute error (a canceled
// context) is returned and nothing is stored, so the store only ever holds
// complete results. A failed write is not an error: Save has counted it,
// and the value is recomputed next run. A nil store always computes.
func LoadOrCompute[T any](s *Store, k Key, compute func() (T, error)) (v T, hit bool, err error) {
	if s.Load(k, &v) {
		return v, true, nil
	}
	if v, err = compute(); err != nil {
		var zero T
		return zero, false, err
	}
	_ = s.Save(k, v) // non-fatal; see failed
	return v, false, nil
}
