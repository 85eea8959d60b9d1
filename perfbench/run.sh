#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; the arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload batch-grow --seed 1 --seconds 20 --trace 0
#
# The build and the run write only under .bench_build/ in the repository:
# the Go build cache, temporary files and the go command's own state are
# pointed there too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
