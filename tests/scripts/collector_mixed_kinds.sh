#!/bin/sh
# hhh-collector must refuse to fold engine frames and sliding-window
# (windowed-detector) frames into one reveal: a disjoint engine window
# and a trailing sliding window measure different things. One `exact`
# frame plus one `memento` frame, in either order, must exit 3 with the
# "cannot mix" error.
#
# Usage: collector_mixed_kinds.sh LIVE COLLECTOR
set -eu

LIVE=$1
COLLECTOR=$2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

"$LIVE" --synthetic=3 --seconds=10 --window=5 --windows=1 \
    --out="$WORK/exact.snap" 2> /dev/null
"$LIVE" --synthetic=3 --seconds=10 --engine=memento --window=5 --step=1 --windows=1 \
    --out="$WORK/memento.snap" 2> /dev/null

for order in "exact memento" "memento exact"; do
    set -- $order
    code=0
    "$COLLECTOR" "$WORK/$1.snap" "$WORK/$2.snap" > /dev/null 2> "$WORK/err" || code=$?
    [ "$code" -eq 3 ] || { echo "FAIL: $1 + $2 frames exited $code, expected 3" >&2
                           sed 's/^/  hhh-collector: /' "$WORK/err" >&2; exit 1; }
    grep -q 'cannot mix' "$WORK/err" \
        || { echo "FAIL: $1 + $2 refusal does not name the mix" >&2
             sed 's/^/  hhh-collector: /' "$WORK/err" >&2; exit 1; }
done

echo "PASS: hhh-collector refused to mix engine and windowed frames"
