#!/bin/sh
# loc.sh [git-ref] — non-test, non-testdata Go lines per package outside
# bench/, and the total: the count the simplicity PRs report. With a ref
# (`make loc BASE=<ref>`) it prints that commit's count, the working tree's
# and the delta, per package and in total — the same file filter on both
# sides, the ref's files read with `git show <ref>:<path>`.
set -eu
cd "$(dirname "$0")/.."

counted() {
	grep '\.go$' | grep -v -e '_test\.go$' -e '^\./bench/' -e '^\./\.bench_build/' -e '/testdata/'
}

# perdir <ref>: "<lines> <dir>" for every package of the tree at ref (the
# working tree when ref is empty).
perdir() {
	if [ -n "$1" ]; then
		git ls-tree -r --name-only "$1" | sed 's|^|./|' | counted | while read -r f; do
			echo "$(git show "$1:$f" | wc -l) $f"
		done
	else
		find . -name '*.go' | counted | while read -r f; do
			echo "$(wc -l <"$f") $f"
		done
	fi | awk '{ d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1 } END { for (d in n) print n[d], d }'
}

if [ $# -eq 0 ]; then
	perdir "" | sort -k2 | awk '{ printf "%6d %s\n", $1, $2; t += $1 } END { printf "%6d total\n", t }'
	exit
fi
git rev-parse --verify --quiet "$1^{commit}" >/dev/null || { echo "loc.sh: $1 is not a commit" >&2; exit 2; }
{
	perdir "$1" | sed 's/^/parent /'
	perdir "" | sed 's/^/change /'
} | awk '
	{ n[$1, $3] = $2; dirs[$3]; t[$1] += $2 }
	END {
		printf "%6s %6s %6s\n", "parent", "change", "delta"
		for (d in dirs)
			printf "%6d %6d %+6d %s\n", n["parent", d], n["change", d], n["change", d] - n["parent", d], d | "sort -k4"
		close("sort -k4")
		printf "%6d %6d %+6d total\n", t["parent"], t["change"], t["change"] - t["parent"]
	}'
