#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload cells --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so the checkout is the only place touched.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/home"

export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache GOPATH=$build/gopath GOENV=off GOTOOLCHAIN=local
export GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod in $root; run from the repository root" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --root "$root" --out "$build/perfbench" "$@"
