#!/usr/bin/env bash
# Builds the benchmark and the stencilserved binary from this checkout
# into .bench_build/, then runs one workload:
#
#   bash perfbench/run.sh --workload solve-n64 --seed 1 --seconds 10 --trace 0
#
# Go's build cache, module cache and telemetry files are kept under
# .bench_build/ too, so nothing is written outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
  GOFLAGS=-buildvcs=false GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/stencilserved" ./cmd/stencilserved)
cd "$root"
exec "$out/perfbench" -server "$out/stencilserved" "$@"
