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
// a negative -screen-guardband among them, the removed fast engine, and
// an unknown model, level or WA workload exit 2 before any work, naming
// the flag or value on stderr.
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
		{[]string{"-model", "xx"}, `unknown model "xx"`},
		{[]string{"-level", "VR99"}, `unknown level "VR99"`},
		{[]string{"-model", "wa", "-workload", "nope"}, `unknown benchmark "nope"`},
		{[]string{"-model", "wa"}, `unknown benchmark ""`},
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

// TestWAOnBT pins that -model wa accepts bt, the benchmark outside
// Table II, and writes its model.
func TestWAOnBT(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-model", "wa", "-workload", "bt", "-scale", "tiny", "-operands", "64")
	cmd.Env = append(os.Environ(), "TEVA_DTA_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "WA-model @VR20/bt") {
		t.Errorf("stderr %q does not describe the bt WA model", stderr.String())
	}
	if stdout.Len() == 0 {
		t.Error("no model written to stdout")
	}
}
