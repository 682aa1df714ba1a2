// Command teva-worker is the shard worker process behind
// `teva-experiments -shards N` (and any other internal/shard
// supervisor). It is not meant to be launched by hand: the supervisor
// spawns it with -supervisor and -id, it fetches the resolved pipeline
// plan over the lease protocol, rebuilds the experiment substrate, and
// then leases work units (characterization summaries, campaign cells)
// until the supervisor reports the set drained. Every result lands in
// the shared artifact cache directory; the worker's stdout/stderr are
// diagnostics only, piped line-prefixed onto the supervisor's stderr.
//
// Chaos hook (used by tests; the transient-crash drill is the
// supervisor's -shard-kill-after):
//
//	TEVA_WORKER_KILL_UNIT=SUBSTR   self-SIGKILL when leasing a unit whose
//	                               ID contains SUBSTR (poison-cell drill:
//	                               restarts inherit the variable, so the
//	                               unit strikes out and is quarantined)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"teva/internal/experiments"
)

func main() {
	supervisor := flag.String("supervisor", "", "coordinator address (host:port), assigned by the supervisor")
	id := flag.String("id", "", "worker identity, assigned by the supervisor")
	flag.Parse()
	if *supervisor == "" || *id == "" {
		fmt.Fprintln(os.Stderr, "teva-worker: -supervisor and -id are required (this binary is spawned by teva-experiments -shards N)")
		os.Exit(2)
	}
	o := experiments.WorkerOptions{
		Supervisor:  *supervisor,
		ID:          *id,
		Diag:        os.Stderr,
		KillUnitSub: os.Getenv("TEVA_WORKER_KILL_UNIT"),
	}
	if err := experiments.WorkerMain(context.Background(), o); err != nil {
		fmt.Fprintf(os.Stderr, "teva-worker: %v\n", err)
		os.Exit(1)
	}
}
