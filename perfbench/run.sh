#!/usr/bin/env bash
# Builds the benchmark and the programs it drives from this checkout's
# source, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite-full --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind stays under .bench_build/
# in the checkout, including Go's build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/apusimd" ./cmd/apusimd
go build -o "$out/bin/repro" ./cmd/repro
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --root "$root" --bin "$out/bin" "$@"
