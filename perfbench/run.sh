#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload tune --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, configuration, the binary, temporary job stores) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
export PERFBENCH_COMMIT="$commit"
exec "$build/perfbench" --tmp "$build/tmp" "$@"
