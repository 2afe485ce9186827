#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver from source and
# runs it with the caller's arguments. Everything the Go toolchain writes
# (build cache, temp files, binaries) is pinned under .bench_build/ in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/bin/soi-bench" .)
cd "$root"
exec "$out/bin/soi-bench" -repo "$root" -work "$out/run" "$@"
