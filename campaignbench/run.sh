#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout it sits in and runs it
# from the checkout's root with the given arguments, e.g.
#
#   bash campaignbench/run.sh --workload cheap-cold --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and everything a run writes stay under
# .bench_build/ in the checkout. Build output goes to standard error, so
# the last line of standard output is the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

# Everything the go command writes (build cache, module cache, temp
# files, its local telemetry counters under the config dir) stays in
# the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/campaignbench" .) >&2
cd "$root"
exec "$build/campaignbench" "$@"
