#!/usr/bin/env bash
# Builds lsdbbench from source and runs it with the given arguments, from
# the repository root:
#
#   bash lsdbbench/run.sh --workload browse --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory:
# $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$(pwd)/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go -C "$here" build -o "$build/lsdbbench" . >&2
exec "$build/lsdbbench" --work "$build" "$@"
