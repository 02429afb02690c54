#!/bin/sh
# textdiff.sh <git-ref> — checks that every experiment's output is byte for
# byte what the commit <git-ref> printed: the check a change that must not
# move a number runs (`make textdiff BASE=<ref>`). It builds cmd/rogbench
# from the ref's files (extracted with `git archive`) and from the working
# tree, then on each side runs `rogbench -all` and `rogbench -exp <id>
# -json` for every id of that side's `-list` (an id that trains nothing
# exits 2 on both sides and is compared by that status alone). It compares
# the union of the two lists: an id that only one side registers — one the
# change deleted or added — is a difference. Wall-clock lines — `[…
# completed in …s wall clock …]` and "report written" — are dropped before
# the diff. It names every id whose text, JSON report or exit status
# differs and exits 1 if any does. The two sides run side by side: about a
# minute at quick scale on 2 cores.
set -eu
cd "$(dirname "$0")/.."
[ $# -eq 1 ] || { echo "usage: scripts/textdiff.sh <git-ref>" >&2; exit 2; }
git rev-parse --verify --quiet "$1^{commit}" >/dev/null || { echo "textdiff.sh: $1 is not a commit" >&2; exit 2; }
GO=${GO:-go}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src" "$tmp/base" "$tmp/change"
git archive "$1" | tar -x -C "$tmp/src"
(cd "$tmp/src" && $GO build -o "$tmp/base/rogbench" ./cmd/rogbench)
$GO build -o "$tmp/change/rogbench" ./cmd/rogbench
baseids=$("$tmp/base/rogbench" -list | awk '{ print $1 }')
changeids=$("$tmp/change/rogbench" -list | awk '{ print $1 }')
ids=$(printf '%s\n%s\n' "$baseids" "$changeids" | awk 'NF && !seen[$0]++')

# listed <id> <ids>: whether <id> is one of the newline-separated <ids>.
listed() { printf '%s\n' "$2" | grep -qxF "$1"; }

# side <dir> <ids>: every output of one build into <dir>, one file per id
# and view.
side() {
	# -all's text, split at each "[<id> completed in …]" line into <id>.txt.
	"$1/rogbench" -all | awk -v d="$1" '
		/^\[[^ ]+ completed in .* wall clock/ { id = substr($1, 2); printf "%s", buf > (d "/" id ".txt"); close(d "/" id ".txt"); buf = ""; next }
		{ buf = buf $0 "\n" }'
	for id in $2; do
		rc=0
		"$1/rogbench" -exp "$id" -json "$1/$id.json" >"$1/$id.log" 2>&1 || rc=$?
		grep -v 'report written to' "$1/$id.log" >"$1/$id.out" || true
		echo "exit $rc" >>"$1/$id.out"
		rm "$1/$id.log"
	done
}
side "$tmp/base" "$baseids" &
basepid=$!
side "$tmp/change" "$changeids"
wait "$basepid"

differ=0
for id in $ids; do
	if ! listed "$id" "$changeids"; then
		echo "textdiff: $id: only in $1"
		differ=$((differ + 1))
		continue
	fi
	if ! listed "$id" "$baseids"; then
		echo "textdiff: $id: only in the working tree"
		differ=$((differ + 1))
		continue
	fi
	for f in "$id.txt" "$id.json" "$id.out"; do
		if [ ! -e "$tmp/base/$f" ] && [ ! -e "$tmp/change/$f" ]; then
			continue
		fi
		if ! cmp -s "$tmp/base/$f" "$tmp/change/$f"; then
			echo "textdiff: $f differs from $1's:"
			diff "$tmp/base/$f" "$tmp/change/$f" | head -20 || true
			differ=$((differ + 1))
		fi
	done
done
texts=$(ls "$tmp/change" | grep -c '\.txt$' || true)
reports=$(ls "$tmp/change" | grep -c '\.json$' || true)
if [ "$differ" -gt 0 ]; then
	echo "textdiff: $differ ids or outputs differ from $1's ($texts texts and $reports JSON reports compared)"
	exit 1
fi
echo "textdiff: $texts texts and $reports JSON reports byte-identical to $1's"
