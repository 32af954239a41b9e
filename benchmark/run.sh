#!/usr/bin/env bash
# Hermetic entry point of the benchmark: every file Go writes (build cache,
# binaries, scratch) stays under .bench_build in the checkout, nothing is
# downloaded, and the benchmark driver is built from source before it runs.
# Arguments are passed on; see benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off

# Fails here, before anything is printed, when the program's sources are not
# beside the benchmark: the module this one requires is the checkout itself.
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)

if [ "${1:-}" = compare ]; then
	shift
	exec "$build/bin/benchmark" compare -root "$root" "$@"
fi
exec "$build/bin/benchmark" -root "$root" "$@"
