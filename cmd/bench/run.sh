#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds cmd/bench from source into
# .bench_build/ at the root of the checkout and runs it with the arguments
# given. Everything the Go toolchain and the benchmark write — build cache,
# temporary files, data dirs, trace.json — stays under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export HOME="$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

# The module replaces `cexplorer` with ../..; without the repository's
# sources there this build fails and the script exits non-zero.
(cd "$here" && go build -o "$build/cexplorer-bench" .)

exec "$build/cexplorer-bench" -work "$build/work" "$@"
