#!/usr/bin/env bash
# benchsuite-smoke.sh — CI smoke of the performance observatory.
#
# Exercises the whole loop against a throwaway store: two real
# `go test -bench` runs of the JV kernels and the move-grouping partition
# are ingested, a trend query spans both, the regression gate passes the
# noise-only pair, and copies of the second run with its ns/op or its B/op
# column doubled must each be flagged; then the markdown/HTML reports
# render. The partition is there because it allocates: the JV kernels sit
# at 0 B/op, which doubling leaves unchanged. Noise margins are
# deliberately wide (threshold 35%, practical floor 30%) because
# back-to-back runs on shared CI runners jitter; the doubled copies are
# +100%, far beyond any margin.
set -euo pipefail
cd "$(dirname "$0")/.."

TOOLDIR="$(mktemp -d)"
STORE="$TOOLDIR/store"
BIN="$TOOLDIR/zac-benchsuite"
trap 'rm -rf "$TOOLDIR"' EXIT

go build -o "$BIN" ./cmd/zac-benchsuite

JV='zac/internal/matching.BenchmarkJVDense'
for commit in smokeA smokeB; do
  echo "benchsuite-smoke: kernels ($commit)" >&2
  go test -run xxx -bench 'BenchmarkJV(Dense|Sparse)$|BenchmarkPartitionIntoIndependentSets' -benchmem -benchtime 100ms -count 5 \
    ./internal/matching ./internal/graphalgo \
    | tee "$TOOLDIR/$commit.txt" | "$BIN" ingest -store "$STORE" -commit "$commit" >&2
done

echo "benchsuite-smoke: trend must span both runs" >&2
TREND="$("$BIN" trend -store "$STORE" -case "$JV" -last 10)"
echo "$TREND" >&2
echo "$TREND" | grep -q smokeA
echo "$TREND" | grep -q smokeB

echo "benchsuite-smoke: noise-only gate (smokeA → smokeB) must pass" >&2
"$BIN" gate -store "$STORE" -baseline smokeA -current smokeB -threshold 35 -min-delta 30 >&2

# flagged <commit> <unit>: ingest smokeB with the <unit> column doubled as
# <commit>; the gate against smokeB must exit 1.
flagged() {
  echo "benchsuite-smoke: smokeB with $2 doubled ($1) must be flagged" >&2
  awk -v unit="$2" '/^Benchmark/ { for (i = 3; i <= NF; i++) if ($i == unit) $(i-1) *= 2 } { print }' "$TOOLDIR/smokeB.txt" \
    | "$BIN" ingest -store "$STORE" -commit "$1" >&2
  local gate=0
  "$BIN" gate -store "$STORE" -baseline smokeB -current "$1" -threshold 35 -min-delta 30 >&2 || gate=$?
  if [ "$gate" -ne 1 ]; then
    echo "benchsuite-smoke: FAILED — doubled $2 gate exited $gate, want 1" >&2
    exit 1
  fi
}
flagged smokeC ns/op
flagged smokeD B/op

echo "benchsuite-smoke: report surfaces" >&2
"$BIN" report -store "$STORE" -format md > "$TOOLDIR/report.md"
grep -q "$JV" "$TOOLDIR/report.md"
"$BIN" report -store "$STORE" -format html -o "$TOOLDIR/report.html" >&2
grep -q '<table>' "$TOOLDIR/report.html"

echo "benchsuite-smoke: ok" >&2
