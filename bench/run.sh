#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given. Everything the build writes (Go build cache, binary)
# stays under .bench_build/ in the checkout. The build needs the parent
# module (../go.mod, ../internal); without it the build fails and this
# script exits non-zero before printing any result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/rogbench" .)
exec "$out/rogbench" "$@"
