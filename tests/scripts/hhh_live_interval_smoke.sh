#!/bin/sh
# Interval-query acceptance over the live sliding path: one hhh-live
# replay of a synthetic day through the Memento sliding stage (W=10s,
# step 1s), retaining every window frame in the in-process FrameRing and
# answering a time-interval query from it after the replay. The smoke
# asserts the end-to-end plumbing (stage -> snapshot frames -> ring ->
# query_interval) works from the CLI:
#
#   * the replay exits 0 and writes kMementoDetector frames to --out;
#   * the interval report merges >= 1 frame with group "memento" and
#     lists at least one HHH with a conditioned byte count;
#   * an interval before any retained frame reports "no retained frame"
#     instead of failing;
#   * a sliding engine without --step is rejected with a pointed error;
#   * streamed with --connect, the sliding replay announces its --step
#     as the epoch grid: hhh-collectord --window=STEP accepts every frame
#     it sends, with no duplicates.
#
# Usage: hhh_live_interval_smoke.sh LIVE COLLECTORD
set -eu

LIVE=$1
COLLECTORD=$2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

"$LIVE" --synthetic=3 --seconds=30 --engine=memento --window=10 --step=1 \
    --out="$WORK/frames.bin" --retain=64 --query-interval=12:26 \
    2> "$WORK/live.err" || { echo "FAIL: sliding replay exited nonzero" >&2
                             sed 's/^/  hhh-live: /' "$WORK/live.err" >&2; exit 1; }

[ -s "$WORK/frames.bin" ] \
    || { echo "FAIL: no snapshot frames written to --out" >&2; exit 1; }

grep -q 'frame(s) merged (group memento)' "$WORK/live.err" \
    || { echo "FAIL: interval report missing or not served by memento frames" >&2
         sed 's/^/  hhh-live: /' "$WORK/live.err" >&2; exit 1; }
grep -q 'conditioned$' "$WORK/live.err" \
    || { echo "FAIL: interval report listed no HHH items" >&2
         sed 's/^/  hhh-live: /' "$WORK/live.err" >&2; exit 1; }

# An interval entirely before the trace: covered by no retained frame —
# the query degrades to a pointed message, not a failure.
"$LIVE" --synthetic=3 --seconds=30 --engine=memento --window=10 --step=1 \
    --out=/dev/null --query-interval=100:200 \
    2> "$WORK/empty.err" || { echo "FAIL: empty-interval replay exited nonzero" >&2
                              sed 's/^/  hhh-live: /' "$WORK/empty.err" >&2; exit 1; }
grep -q 'no retained frame' "$WORK/empty.err" \
    || { echo "FAIL: empty interval did not report the no-frames message" >&2
         sed 's/^/  hhh-live: /' "$WORK/empty.err" >&2; exit 1; }

# Sliding detectors need a report cadence: without --step the tool must
# refuse with an error naming the flag, not silently run disjoint.
if "$LIVE" --synthetic=3 --seconds=5 --engine=memento --out=/dev/null \
    2> "$WORK/nostep.err"; then
    echo "FAIL: sliding engine without --step was accepted" >&2; exit 1
fi
grep -q 'step' "$WORK/nostep.err" \
    || { echo "FAIL: missing-step error does not mention --step" >&2
         sed 's/^/  hhh-live: /' "$WORK/nostep.err" >&2; exit 1; }

# One frame per step, each on the step grid: a collector whose epoch is
# the step takes every frame exactly once.
SOCK=$WORK/c.sock
"$COLLECTORD" --listen=unix:"$SOCK" --window=1 --expected-vantages=1 --idle-exit=1 \
    > /dev/null 2> "$WORK/collectord.err" &
CPID=$!
i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ $i -le 100 ] || { echo "FAIL: collector socket never appeared" >&2
                        kill "$CPID"; exit 1; }
    sleep 0.1
done
"$LIVE" --synthetic=3 --seconds=30 --engine=memento --window=10 --step=1 \
    --connect=unix:"$SOCK" --retry=5 2> "$WORK/connect.err" \
    || { echo "FAIL: sliding --connect replay exited nonzero" >&2
         sed 's/^/  hhh-live: /' "$WORK/connect.err" >&2; kill "$CPID"; exit 1; }
wait "$CPID" || { echo "FAIL: hhh-collectord exited nonzero" >&2
                  sed 's/^/  collectord: /' "$WORK/collectord.err" >&2; exit 1; }
SENT=$(sed -n 's/.* \([0-9][0-9]*\) window frame(s) -> .*/\1/p' "$WORK/connect.err")
GOT=$(sed -n 's/.* conn(s), \([0-9][0-9]*\) frame(s), .*/\1/p' "$WORK/collectord.err")
[ -n "$SENT" ] && [ "$SENT" = "$GOT" ] \
    || { echo "FAIL: hhh-live sent '$SENT' frame(s), the collector took '$GOT'" >&2
         sed 's/^/  collectord: /' "$WORK/collectord.err" >&2; exit 1; }
grep -q ' 0 duplicate(s)' "$WORK/collectord.err" \
    || { echo "FAIL: the collector dropped duplicate frames" >&2
         sed 's/^/  collectord: /' "$WORK/collectord.err" >&2; exit 1; }

echo "PASS: hhh-live sliding replay answered interval queries and streamed on the step grid"
