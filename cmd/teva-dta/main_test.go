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
// TEVA_DTA_MAIN set, the test binary is teva-dta.
func TestMain(m *testing.M) {
	if os.Getenv("TEVA_DTA_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeGuardbandExits2 pins that the removed STA-screen options,
// a negative -screen-guardband among them, and the removed fast engine
// exit 2 before any work, naming the flag or engine on stderr.
func TestNegativeGuardbandExits2(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-sta-screen", "-screen-guardband", "-1"}, "-sta-screen"},
		{[]string{"-screen-guardband", "-1"}, "-screen-guardband"},
		{[]string{"-screen-guardband", "1"}, "-screen-guardband"},
		{[]string{"-screen-validate"}, "-screen-validate"},
		{[]string{"-timing", "fast"}, `unknown timing engine "fast"`},
	} {
		args := append([]string{"-model", "ia", "-level", "VR20", "-operands", "64"}, tc.args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "TEVA_DTA_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2\nstderr: %s", tc.args, err, stderr.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: rejected run wrote a model:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("%v: stderr %q does not name %q", tc.args, stderr.String(), tc.wantErr)
		}
	}
}
