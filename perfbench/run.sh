#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments (see perfbench/METRICS.md). Every build artefact stays under
# .bench_build/ in the current directory, which must be the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
