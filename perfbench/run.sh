#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload jbb-leak --seed 1 --seconds 16 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under the
# directory named by CARGO_TARGET_DIR, default .bench_build, relative to
# the repository root. Build output goes to stderr; the benchmark's report
# and its final JSON line go to stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# Keep the toolchain's caches and config inside the build directory and
# never reach for the network or another toolchain.
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export XDG_CONFIG_HOME="$build/config"

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: the benchmark needs the repository's sources" >&2
	exit 1
fi
if ! (cd "$here" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$build/perfbench" --root "$root" "$@"
