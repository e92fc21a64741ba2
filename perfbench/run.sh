#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root
# of the checkout. See perfbench/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# Keep the Go toolchain's caches, settings and telemetry counters
# inside the checkout, and never let it reach the network: the
# benchmark has no dependency outside the repository.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=readonly

(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .)

if rev="$(cd "$root" && git rev-parse HEAD 2>/dev/null)"; then
	dirty=0
	[ -z "$(cd "$root" && GIT_OPTIONAL_LOCKS=0 git status --porcelain 2>/dev/null)" ] || dirty=1
	export PERFBENCH_REV="$rev" PERFBENCH_DIRTY="$dirty"
fi

cd "$root"
exec "$build/perfbench" --out "$build" "$@"
