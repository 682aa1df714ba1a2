package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"teva/internal/workloads"
)

// TestMain lets a test run this command as a child process: with
// TEVA_INJECT_MAIN set, the test binary is teva-inject.
func TestMain(m *testing.M) {
	if os.Getenv("TEVA_INJECT_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExit2 pins that every bad flag value exits 2 before any
// work: nothing reaches stdout (no "injecting" line, so no model was
// developed) and stderr names the offending value.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-workload", "is", "-runs", "-5"}, "-runs -5"},
		{[]string{"-workload", "is", "-runs", "0"}, "-runs 0"},
		{[]string{"-workload", "is", "-model", "xx"}, `unknown model "xx"`},
		{[]string{"-workload", "is", "-level", "VR99"}, `unknown level "VR99"`},
		{[]string{"-workload", "nope"}, `unknown benchmark "nope"`},
		{nil, `unknown benchmark ""`},
		{[]string{"-workload", "is", "-scale", "huge"}, "huge"},
	} {
		args := append([]string{"-scale", "tiny"}, tc.args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "TEVA_INJECT_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2\nstderr: %s", tc.args, err, stderr.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: rejected run wrote to stdout:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("%v: stderr %q does not name %q", tc.args, stderr.String(), tc.wantErr)
		}
	}
}

// TestEveryWorkloadAccepted pins that the flag checks accept every
// registered benchmark, bt included, and that each runs a campaign.
func TestEveryWorkloadAccepted(t *testing.T) {
	for _, name := range workloads.AllNames() {
		cmd := exec.Command(os.Args[0], "-workload", name, "-scale", "tiny", "-model", "ia", "-runs", "1")
		cmd.Env = append(os.Environ(), "TEVA_INJECT_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("-workload %s: %v\nstderr: %s", name, err, stderr.String())
			continue
		}
		if !strings.Contains(stdout.String(), "AVM (Eq. 4):") {
			t.Errorf("-workload %s: no AVM line in stdout:\n%s", name, stdout.String())
		}
	}
}
