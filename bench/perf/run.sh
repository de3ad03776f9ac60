#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark and the s3cluster
# binary it measures, then runs one workload. Everything it writes - Go's
# build cache and temporary files included - stays under .bench_build/ at the
# root of the checkout, which .gitignore names.
#
#   bash bench/perf/run.sh --workload wc-shared --seed 1 --seconds 18 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/go.mod" ]]; then
	echo "run.sh: $root is not the s3sched repository (no go.mod): nothing to measure" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
# The module has no dependencies outside this repository, so nothing may
# reach for the network or another toolchain.
export GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perf" .)
(cd "$root" && go build -o "$build/s3cluster" ./cmd/s3cluster)
cd "$root"
exec "$build/perf" -s3cluster "$build/s3cluster" "$@"
