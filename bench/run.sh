#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ at the repository root. The last line of standard output
# is the run's JSON result; see bench/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS="" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$out/teva-bench" .
exec "$out/teva-bench" "$@"
