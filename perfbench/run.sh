#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload profile --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary, the runs' working files and traced runs'
# span files all live under the build directory ($CARGO_TARGET_DIR,
# default .bench_build), inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The Go runtime's own knobs stay at their defaults whatever the caller's
# environment holds.
unset GOGC GOMEMLIMIT GODEBUG
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build" "$@"
