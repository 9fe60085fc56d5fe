#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it sits in, then runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload batch-candidate --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# checkout root: the binary, the Go caches, scratch data and trace files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
PERFBENCH_COMMIT=""
if [ -d "$root/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi
export PERFBENCH_COMMIT
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
