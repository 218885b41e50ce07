#!/usr/bin/env bash
# Builds the programs under test and the benchmark program from source, then
# runs the benchmark with this script's arguments. Run it from the root of the
# repository:
#
#   bash perfbench/run.sh --workload build-skewed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false GOWORK=off
go build -o "$out/bin/" ./cmd/gendata ./cmd/spcube ./cmd/spserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
