#!/bin/sh
# loc.sh — non-test, non-testdata Go lines per package outside bench/, and
# the total: the count the simplicity PRs report before → after.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
	! -path '*/testdata/*' -exec wc -l {} + |
	awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1; t += $1 }
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"
			close("sort -k2"); printf "%6d total\n", t }'
