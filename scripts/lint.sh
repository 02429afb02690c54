#!/bin/sh
# lint.sh — run roglint, the repo's invariant analyzer suite
# (internal/analysis), over the whole module with per-pass timing, then
# once more asking for one package's findings only: a subset run must see
# the whole program (durable's lockorder suppression answers a declaration
# in engine/state.go), and a driver that forgets it fails here.
# Exits non-zero on any finding that is not covered by a justified
# //roglint:ignore. Exit code 2 from roglint means the analyzer could
# not even load/type-check the tree — that is a build problem, not a
# lint finding, and the gate says so explicitly instead of folding it
# into the findings stream.
set -eu

cd "$(dirname "$0")/.."

rc=0
go run ./cmd/roglint -timing ./... && go run ./cmd/roglint ./internal/durable || rc=$?
if [ "$rc" -eq 2 ]; then
	echo "lint: analyzer load error (exit 2) — fix the build before reading findings" >&2
fi
exit "$rc"
