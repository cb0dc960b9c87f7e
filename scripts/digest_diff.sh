#!/bin/sh
# digest_diff.sh — prove a change bit-identical to a base revision: run the
# determinism digest corpus (TestDigestCorpusSerial, INVARIANT_SEEDS cases,
# default 60) in a clean export of BASE and in the working tree, then compare
# the two dumps line by line. Exits non-zero on any differing digest.
#
#   BASE=HEAD~ scripts/digest_diff.sh     (or: make digest-diff BASE=HEAD~)
set -eu

cd "$(dirname "$0")/.."

BASE="${BASE:?set BASE to the revision to compare against, e.g. BASE=HEAD~}"
SEEDS="${INVARIANT_SEEDS:-60}"

rev=$(git rev-parse --verify "$BASE^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A plain export of the committed tree: nothing to register or clean up in
# the repository's own metadata if the run is interrupted.
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"

dump() { # dump <dir> <out>
    (cd "$1" && INVARIANT_SEEDS="$SEEDS" DIGEST_DUMP="$2" \
        go test -count=1 -run '^TestDigestCorpusSerial$' ./internal/harness/ >/dev/null)
}

echo "digest-diff: corpus of $SEEDS at $BASE ($rev)"
dump "$tmp/base" "$tmp/base.txt"
echo "digest-diff: corpus of $SEEDS at the working tree"
dump "$(pwd)" "$tmp/work.txt"

total=$(wc -l <"$tmp/base.txt")
if cmp -s "$tmp/base.txt" "$tmp/work.txt"; then
    echo "digest-diff: $total/$total corpus digests identical"
    exit 0
fi
echo "digest-diff: corpus digests differ from $BASE:" >&2
diff "$tmp/base.txt" "$tmp/work.txt" >&2 || true
exit 1
