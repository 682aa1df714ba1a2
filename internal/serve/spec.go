// Package serve is the campaign-as-a-service layer: a stdlib net/http
// API that accepts experiment-matrix specs (the JSON form of
// experiments.Spec, which the teva-experiments flags also fill),
// schedules them onto the shared experiment pipeline (experiments.Env
// over the bounded worker pool), dedupes identical submissions, streams
// per-cell progress and obs snapshots over SSE/NDJSON, and serves final
// results as the byte-deterministic report the CLI prints.
//
// A job's ID is the content address of the run it resolves to
// (experiments.Spec.JobID): the hash of Effective's option/config pair
// without its worker count, plus the experiment selection and corner
// spec. Specs that spell the same run differently share one job.
//
// The determinism contract is the CLI's: for a given spec, the bytes of
// GET /v1/jobs/{id}/result are identical to `teva-experiments` stdout
// with the wall-clock lines removed (the same `grep -vE 'built
// in|completed in|total wall time'` filter CI applies), cold or warm
// cache, any worker count, any number of concurrent clients.
package serve

import (
	"io"

	"teva/internal/experiments"
)

// Spec is the wire form of one campaign-matrix request.
type Spec = experiments.Spec

// DecodeSpec reads one JSON spec body (see experiments.DecodeSpec).
func DecodeSpec(r io.Reader) (Spec, error) { return experiments.DecodeSpec(r) }
