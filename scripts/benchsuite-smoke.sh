#!/usr/bin/env bash
# benchsuite-smoke.sh — CI smoke of the performance observatory.
#
# Exercises the whole loop against a throwaway store. Kernel half: two real
# `go test -bench` runs of the JV kernels are ingested, a trend query spans
# both, the regression gate passes the noise-only pair, and a copy of the
# second run with its ns/op column doubled must be flagged. Compile half:
# a smoke run of the compile matrix lands in the same store, and the
# markdown/HTML reports render both. Noise margins are deliberately wide
# (threshold 35%, practical floor 30%) because back-to-back runs on shared
# CI runners jitter; the doubled copy is +100%, far beyond any margin.
set -euo pipefail
cd "$(dirname "$0")/.."

TOOLDIR="$(mktemp -d)"
STORE="$TOOLDIR/store"
BIN="$TOOLDIR/zac-benchsuite"
trap 'rm -rf "$TOOLDIR"' EXIT

go build -o "$BIN" ./cmd/zac-benchsuite

JV='zac/internal/matching.BenchmarkJVDense'
for commit in smokeA smokeB; do
  echo "benchsuite-smoke: JV kernels ($commit)" >&2
  go test -run xxx -bench 'BenchmarkJV(Dense|Sparse)$' -benchmem -benchtime 100ms -count 5 ./internal/matching \
    | tee "$TOOLDIR/$commit.txt" | "$BIN" ingest -store "$STORE" -commit "$commit" >&2
done

echo "benchsuite-smoke: trend must span both runs" >&2
TREND="$("$BIN" trend -store "$STORE" -case "$JV" -last 10)"
echo "$TREND" >&2
echo "$TREND" | grep -q smokeA
echo "$TREND" | grep -q smokeB

echo "benchsuite-smoke: noise-only gate (smokeA → smokeB) must pass" >&2
"$BIN" gate -store "$STORE" -baseline smokeA -current smokeB -threshold 35 -min-delta 30 >&2

echo "benchsuite-smoke: smokeB with ns/op doubled (smokeC) must be flagged" >&2
awk '/^Benchmark/ { for (i = 3; i <= NF; i++) if ($i == "ns/op") $(i-1) *= 2 } { print }' "$TOOLDIR/smokeB.txt" \
  | "$BIN" ingest -store "$STORE" -commit smokeC >&2
GATE=0
"$BIN" gate -store "$STORE" -baseline smokeB -current smokeC -threshold 35 -min-delta 30 >&2 || GATE=$?
if [ "$GATE" -ne 1 ]; then
  echo "benchsuite-smoke: FAILED — doubled ns/op gate exited $GATE, want 1" >&2
  exit 1
fi

echo "benchsuite-smoke: compile matrix smoke run" >&2
"$BIN" run -smoke -store "$STORE" -commit smokeCompile >&2

echo "benchsuite-smoke: report surfaces" >&2
"$BIN" report -store "$STORE" -format md > "$TOOLDIR/report.md"
grep -q "$JV" "$TOOLDIR/report.md"
grep -q 'compile/zac/' "$TOOLDIR/report.md"
"$BIN" report -store "$STORE" -format html -o "$TOOLDIR/report.html" >&2
grep -q '<table>' "$TOOLDIR/report.html"

echo "benchsuite-smoke: ok" >&2
