#!/usr/bin/env bash
# Builds the perfbench benchmark from source and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload rate64-local --seed 1 --seconds 15 --trace 0
#
# Build products and the Go build cache stay under .bench_build in the
# repository root. The build needs the repository's own module one
# directory up; without it the build fails and no result is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=auto
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
