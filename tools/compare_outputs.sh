#!/usr/bin/env bash
# Compare the CLI outputs of this checkout with those of git revision REV.
# REV is exported with `git archive` into a temporary directory (no worktree,
# no change to .git), this checkout's tools/cli_outputs.sh is copied into the
# export so that both trees run the same steps, and `diff -r` compares the
# two output trees.  Exits non-zero on any difference.
#
#   tools/compare_outputs.sh REV
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
REPO=$(cd "$(dirname "$0")/.." && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

mkdir -p "$TMP/rev/tools"
git -C "$REPO" archive "$1" | tar -x -C "$TMP/rev"
cp "$REPO/tools/cli_outputs.sh" "$TMP/rev/tools/cli_outputs.sh"
"$TMP/rev/tools/cli_outputs.sh" "$TMP/out-rev"
"$REPO/tools/cli_outputs.sh" "$TMP/out-here"
diff -r "$TMP/out-rev" "$TMP/out-here"
echo "CLI outputs identical to $1"
