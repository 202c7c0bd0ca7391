#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload gen-stream --seed 1 --seconds 20 --trace 0
#
# Every build and run file stays under .bench_build/ in the checkout:
# the Go build cache, the Go configuration directory, temporary files
# and the benchmark's own state. The toolchain is never downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/config" "$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off
(cd perfbench && go build -o "$build/perfbench-bin" .) >&2
exec "$build/perfbench-bin" "$@"
