#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it
# from the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload hit-local --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module cache, configuration and temporary files all
# stay under .bench_build in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
