#!/usr/bin/env bash
# run.sh — build the shipped binaries and the benchmark from source, then
# run the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload helios-deep --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh compare before/ after/
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the binaries and the run's scratch files.
# It needs no network: the module has no dependencies outside the
# repository.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/lumosweb ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ not found here)" >&2
    exit 2
fi

BUILD="$PWD/.bench_build"
mkdir -p "$BUILD/bin" "$BUILD/work" "$BUILD/home"
export GOCACHE="$BUILD/gocache"
export GOPATH="$BUILD/gopath"
export GOMODCACHE="$BUILD/gopath/pkg/mod"
export HOME="$BUILD/home"
export XDG_CONFIG_HOME="$BUILD/home/.config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

go build -o "$BUILD/bin/" ./cmd/tracegen ./cmd/schedsim ./cmd/lumosweb >&2
(cd perfbench && go build -o "$BUILD/bin/perfbench" .) >&2

if [ "${1:-}" = compare ]; then
    exec "$BUILD/bin/perfbench" "$@"
fi
exec "$BUILD/bin/perfbench" -bin "$BUILD/bin" -work "$BUILD/work" "$@"
