#!/bin/sh
# Go lines added, removed and net in the working tree against a revision,
# split into non-test and test (_test.go) files — the net LoC every change
# reports:
#
#   sh scripts/loc.sh <rev>
#
# Tracked files count through `git diff --numstat <rev>`; untracked .go
# files that git does not ignore count as added in full.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: scripts/loc.sh <rev>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
if ! git rev-parse --verify -q "$1^{commit}" >/dev/null; then
    echo "loc.sh: unknown revision $1" >&2
    exit 2
fi
{
    git diff --numstat "$1" -- '*.go'
    git ls-files --others --exclude-standard -- '*.go' | while read -r f; do
        printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
    done
} | awk -F '\t' '
    { k = ($3 ~ /_test\.go/) ? "test" : "non-test"; add[k] += $1; del[k] += $2 }
    END {
        for (i = 1; i <= 2; i++) {
            k = (i == 1) ? "non-test" : "test"
            net = add[k] - del[k]
            printf "%-8s  +%d  -%d  net %s%d\n", k, add[k], del[k], (net > 0 ? "+" : ""), net
        }
    }'
