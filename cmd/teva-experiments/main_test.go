package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this command as a child process: with
// TEVA_EXPERIMENTS_MAIN set, the test binary is teva-experiments.
func TestMain(m *testing.M) {
	if os.Getenv("TEVA_EXPERIMENTS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs teva-experiments with args, returning its exit code,
// stdout and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TEVA_EXPERIMENTS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// TestRejectsWhatServeRejects pins that the flags go through the same
// validation as a served spec: each invalid value exits 2 with the
// reason on stderr, before any work starts. A negative guardband used to
// screen ops that really fail timing and report them error-free.
func TestRejectsWhatServeRejects(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-quick", "-exp", "fig7", "-sta-screen", "-screen-guardband", "-1000"}, "guardband"},
		{[]string{"-quick", "-exp", "fig7", "-runs", "-5"}, "runs -5"},
		{[]string{"-quick", "-exp", "fig77"}, "valid: all, design"},
		{[]string{"-quick", "-exp", "fig7", "-scale", "huge"}, "unknown scale"},
		{[]string{"-quick", "-exp", "fig7", "-timing", "turbo"}, "unknown timing engine"},
	}
	for _, tc := range cases {
		code, stdout, stderr := runMain(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\nstderr: %s", tc.args, code, stderr)
			continue
		}
		if stdout != "" {
			t.Errorf("%v: rejected run printed to stdout:\n%s", tc.args, stdout)
		}
		if !strings.Contains(stderr, tc.wantErr) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, stderr, tc.wantErr)
		}
	}
}
