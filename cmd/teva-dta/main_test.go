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

// TestNegativeGuardbandExits2 pins that -screen-guardband gets the same
// check as a served spec: a negative margin would screen ops that really
// fail timing and report them error-free.
func TestNegativeGuardbandExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-model", "ia", "-level", "VR20", "-operands", "64",
		"-sta-screen", "-screen-guardband", "-1")
	cmd.Env = append(os.Environ(), "TEVA_DTA_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2\nstderr: %s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("rejected run wrote a model:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "guardband") {
		t.Fatalf("stderr %q does not name the guardband", stderr.String())
	}
}
