#!/usr/bin/env bash
# Builds ontoaccessd and the harness from this checkout's source into
# .bench_build/ (Go build cache included, so nothing is written outside
# the checkout) and runs the harness with the given arguments.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false
go build -o .bench_build/ontoaccessd ./cmd/ontoaccessd
(cd bench && go build -o ../.bench_build/bench .)
exec .bench_build/bench "$@"
