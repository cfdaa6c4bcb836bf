#!/usr/bin/env bash
# Builds the dashbench command from source and runs it, forwarding every
# argument. Run it from the root of a checkout:
#
#   bash dashbench/run.sh --workload churn-1m --seed 1 --seconds 4 --trace 0
#
# Everything the build and the runs write stays under the build
# directory ($CARGO_TARGET_DIR if set, else .bench_build), including the
# Go build cache.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOTOOLCHAIN=local GOPROXY=off
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config

bin=$build/dashbench-bin
(cd "$root/dashbench" && go build -o "$bin" .)

# The source revision recorded with every result: the git commit when
# this is a git checkout, else a digest of the Go sources.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null) ||
	commit=src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)

exec "$bin" --commit "$commit" --out "$build/dashbench" "$@"
