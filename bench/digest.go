package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"teva/internal/campaign"
	"teva/internal/dta"
)

// expectedJSON holds recorded digests: workload → seed (as %#x) → op key
// → digest, for the benchmark's full size.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]map[string]map[string]string, error) {
	var exp map[string]map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("bench: expected.json: %w", err)
	}
	return exp, nil
}

func shortHash(h []byte) string { return hex.EncodeToString(h[:8]) }

// cellDigest hashes what a campaign cell computed: outcome counts, runs,
// injected errors, runs with an injection, the golden run's instret,
// cycles and FP op counts, and the crash kinds in sorted order.
func cellDigest(r *campaign.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s/%s/%s outcomes=%v runs=%d injected=%d with=%d instret=%d cycles=%d fpops=%v",
		r.Workload, r.Model, r.Level, r.Outcomes, r.Runs, r.InjectedErrors,
		r.RunsWithInjection, r.GoldenInstret, r.GoldenCycles, r.GoldenFPOps)
	for _, k := range sortedKeys(r.CrashKinds) {
		fmt.Fprintf(h, " %s=%d", k, r.CrashKinds[k])
	}
	return shortHash(h.Sum(nil))
}

// checkCell is the structural check that holds for any seed.
func checkCell(r *campaign.Result, goldenInstret int64) error {
	sum := 0
	for _, n := range r.Outcomes {
		sum += n
	}
	switch {
	case sum != r.Runs:
		return fmt.Errorf("outcomes sum to %d, want %d runs", sum, r.Runs)
	case r.RunsWithInjection > r.Runs:
		return fmt.Errorf("%d runs with injection exceed %d runs", r.RunsWithInjection, r.Runs)
	case r.GoldenInstret != goldenInstret:
		return fmt.Errorf("golden instret %d, the benchmark's golden run retired %d", r.GoldenInstret, goldenInstret)
	}
	return nil
}

// summaryDigest hashes a DTA summary: Total, Faulty, BitErrors, FlipHist
// and the observed masks in stream order.
func summaryDigest(s *dta.Summary) string {
	mh := sha256.New()
	var buf [8]byte
	for _, m := range s.Masks {
		binary.LittleEndian.PutUint64(buf[:], m)
		mh.Write(buf[:])
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s total=%d faulty=%d bits=%v flips=%v masks=%x",
		s.Op, s.Total, s.Faulty, s.BitErrors, s.FlipHist, mh.Sum(nil))
	return shortHash(h.Sum(nil))
}

// checkSummary is the structural check that holds for any seed.
func checkSummary(s *dta.Summary, want int) error {
	flips := 0
	for _, n := range s.FlipHist {
		flips += n
	}
	switch {
	case s.Total != want:
		return fmt.Errorf("analyzed %d pairs, want %d", s.Total, want)
	case s.Faulty > s.Total || flips != s.Faulty || len(s.Masks) != s.Faulty:
		return fmt.Errorf("faulty %d, flip histogram %d and %d masks disagree (total %d)",
			s.Faulty, flips, len(s.Masks), s.Total)
	}
	return nil
}
