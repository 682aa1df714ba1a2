// Command teva-serve is the campaign-as-a-service front end: an HTTP
// API that runs the same experiment suite as teva-experiments and
// serves the same byte-deterministic reports, with identical concurrent
// submissions deduped onto one computation.
//
// Usage:
//
//	teva-serve [-addr :8080] [-cache-dir DIR] [-max-jobs N]
//	           [-snapshot-every D] [-metrics-out FILE]
//
// API (see README.md for curl examples):
//
//	POST /v1/jobs                  submit a spec (JSON mirroring the CLI flags)
//	GET  /v1/jobs                  list jobs
//	GET  /v1/jobs/{id}             job status and progress
//	POST /v1/jobs/{id}/cancel      graceful cancel (completed cells stay cached)
//	GET  /v1/jobs/{id}/events      progress stream (SSE or NDJSON, ?from=N)
//	GET  /v1/jobs/{id}/result      the deterministic report bytes
//	GET  /v1/jobs/{id}/csv[/NAME]  exported CSV series
//	GET  /v1/jobs/{id}/metrics     the job's obs snapshot (?format=prom)
//	GET  /healthz, /metricsz       server health and serve.* counters
//
// Shutdown mirrors teva-experiments' two-stage handler: the first
// SIGINT/SIGTERM stops accepting jobs, drains in-flight cells into the
// artifact cache, closes the listener once streams end, flushes metrics
// and exits 130; a second signal aborts immediately. With -cache-dir,
// resubmitting the same specs after a restart resumes from the cached
// cells.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"teva/internal/artifact"
	"teva/internal/obs"
	"teva/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "persist DTA summaries and campaign cells in this artifact store (shared by all jobs; enables restart resume)")
	maxJobs := flag.Int("max-jobs", 1, "jobs executing concurrently (each job is internally parallel)")
	snapshotEvery := flag.Duration("snapshot-every", 2*time.Second, "period of progress/snapshot events on job streams")
	metricsOut := flag.String("metrics-out", "", "write the server metrics snapshot here on exit (JSON; Prometheus text if the name ends in .prom or .txt)")
	flag.Parse()

	start := time.Now()
	clock := func() int64 { return int64(time.Since(start)) }
	reg := obs.NewRegistry(clock)

	var store *artifact.Store
	if *cacheDir != "" {
		st, err := artifact.OpenIn(*cacheDir, reg)
		if err != nil {
			fatal(err)
		}
		store = st
	}

	srv := serve.New(serve.Config{
		Artifacts:     store,
		Metrics:       reg,
		Clock:         clock,
		MaxConcurrent: *maxJobs,
		SnapshotEvery: *snapshotEvery,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Two-stage shutdown, like teva-experiments: the first signal
	// drains (no new jobs, in-flight cells finish and are cached, the
	// listener closes once idle, metrics still flush, exit 130); a
	// second signal hard-exits.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr,
			"teva-serve: %s received: draining jobs, then shutting down (repeat to abort immediately)\n", sig)
		srv.Drain()
		go func() {
			srv.Wait()
			if err := hs.Shutdown(context.Background()); err != nil {
				fmt.Fprintf(os.Stderr, "teva-serve: shutdown: %v\n", err)
			}
		}()
		sig = <-sigCh
		fmt.Fprintf(os.Stderr, "teva-serve: second %s: aborting now\n", sig)
		os.Exit(130)
	}()

	fmt.Fprintf(os.Stderr, "teva-serve: listening on %s\n", *addr)
	err := hs.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	srv.Wait()
	snap := reg.Snapshot()
	if *metricsOut != "" {
		if err := snap.WriteFile(*metricsOut); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s\n", snap.Summary())
	if srv.Draining() {
		fmt.Fprintln(os.Stderr, "teva-serve: drained; completed cells were flushed to the artifact cache")
		os.Exit(130)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "teva-serve:", err)
	os.Exit(1)
}
