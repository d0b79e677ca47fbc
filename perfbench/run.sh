#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. --workload paper-suite --seed 1 --seconds 20 --trace 0. Run it
# from the repository root: the benchmark module builds against the
# repository module one directory up, and everything the build and the
# run write stays under .bench_build/ there.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C "$here" -o "$out/perfbench" .
exec "$out/perfbench" --scratch "$out/perfbench-scratch" "$@"
