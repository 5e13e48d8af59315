#!/usr/bin/env bash
# Builds the benchmark from the tree it sits in and runs it; every
# argument is passed on (see perfbench/main.go, or run with --list).
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload nutch-pcs --seed 1 --seconds 22 --trace 0
#
# The Go build cache, the binaries, temporary files and traces all stay
# under .bench_build in the checkout, and no module is fetched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
