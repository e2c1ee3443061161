#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   bash benchmark/run.sh                      build once, run every workload end to end,
#                                              then the traced pass (honours SEED, DURATION)
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                              the driver's form: one workload, its result
#                                              as the last line of standard output
#
# Everything the build and the run write stays inside the checkout: the
# binary, Go's build cache and temp files under .bench_build/, results and
# scratch under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off
go build -o "$build/claimsbench" ./benchmark

if [ "$#" -gt 0 ]; then
	exec "$build/claimsbench" "$@"
fi
"$build/claimsbench" -all -seed "${SEED:-1}" -seconds "${DURATION:-12}" -out benchmark/out
"$build/claimsbench" -all -trace 1 -seed "${SEED:-1}" -seconds "${DURATION:-12}" -out benchmark/out
