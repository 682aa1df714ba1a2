// Package cli holds the process scaffolding the teva commands share:
// runtime/pprof profile capture and the two-stage SIGINT/SIGTERM handler.
package cli

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
)

// StartProfiles starts the requested runtime/pprof profiles (an empty
// path skips that profile) and returns the function that flushes them
// at end of run. A profile file that cannot be written is fatal: prog
// prefixes the message on stderr and the process exits 1.
func StartProfiles(prog, cpuPath, memPath string) (stop func()) {
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(1)
	}
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
	}
}

// OnInterrupt installs the two-stage shutdown handler: the first
// SIGINT/SIGTERM announces action on stderr and calls first (which
// should start an orderly stop and return promptly); a second signal
// exits 130 at once, without waiting for the orderly stop to finish.
func OnInterrupt(prog, action string, first func()) {
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "%s: %s received: %s (repeat to abort immediately)\n", prog, sig, action)
		first()
		sig = <-sigCh
		fmt.Fprintf(os.Stderr, "%s: second %s: aborting now\n", prog, sig)
		os.Exit(130)
	}()
}
