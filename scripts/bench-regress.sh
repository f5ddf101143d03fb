#!/usr/bin/env bash
# bench-regress.sh [ref]
#
# Kernel regression gate: the go-test benchmarks in PATTERN, measured A/B
# on this machine and judged by the benchsuite store's Mann-Whitney gate.
#
#   1. ref (default HEAD) is checked out into a throwaway directory with
#      git archive, which leaves no worktree registered if the run dies.
#   2. BENCH_REPS pairs of runs alternate between ref and the working tree;
#      each `go test -bench -benchmem` run is piped through
#      `zac-benchsuite ingest` into BENCH_STORE under one of two labels,
#      base-<run>-<ref sha> and tree-<run>-<HEAD sha>. <run> is the start
#      time, so the labels differ even when ref is HEAD and a rerun never
#      merges with an earlier one.
#   3. The exit status is `zac-benchsuite gate`'s verdict: 0 no regression,
#      1 a significant ns/op, B/op or allocs/op growth beyond
#      BENCH_MIN_DELTA_PCT, 2 an error.
#
# Both sides run on the same machine within one script run, so no
# recorded baseline from another machine enters the verdict.
#
# Environment:
#   BENCH_STORE          store directory (default .zac-benchstore)
#   BENCH_REPS           run pairs, i.e. samples per benchmark and side
#                        (default 10; the gate needs at least 5)
#   BENCHTIME            go test -benchtime (default 200ms; at 20x the
#                        sub-ms JV kernels drift tens of percent between
#                        identical runs)
#   BENCH_ALPHA          Mann-Whitney significance level (default 0.05)
#   BENCH_MIN_DELTA_PCT  practical-significance floor in percent (default 3)
#   PATTERN              go test -bench regexp (default: the preprocessing,
#                        placement and scheduling kernels below)
#   PKGS                 packages holding them
set -euo pipefail
cd "$(dirname "$0")/.."

REF="${1:-HEAD}"
STORE="${BENCH_STORE:-.zac-benchstore}"
REPS="${BENCH_REPS:-10}"
BENCHTIME="${BENCHTIME:-200ms}"
PATTERN="${PATTERN:-BenchmarkJVDense|BenchmarkJVSparse|BenchmarkJVSparseReturns|BenchmarkPartitionIntoIndependentSets|BenchmarkSAInitial|BenchmarkBuildPlan|BenchmarkBuildPlanSched|BenchmarkPreprocess}"
PKGS="${PKGS:-./internal/matching ./internal/graphalgo ./internal/place ./internal/schedule ./internal/resynth}"

REF_SHA="$(git rev-parse --verify --quiet "$REF^{commit}")" || {
  echo "bench-regress: $REF is not a commit" >&2
  exit 2
}
RUN="$(date -u +%Y%m%dT%H%M%SZ)"
BASE="base-$RUN-$REF_SHA"
TREE="tree-$RUN-$(git rev-parse HEAD)"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/ref"
git archive "$REF_SHA" | tar -x -C "$WORK/ref"
go build -o "$WORK/zac-benchsuite" ./cmd/zac-benchsuite

# bench <dir> <label>: one benchmark run of the tree in dir into the store.
# -p 1 keeps the go command from linking one package's test binary while
# another package's benchmarks run. A failing build or benchmark is an
# error (exit 2), never a verdict.
bench() {
  (cd "$1" && go test -p 1 -run xxx -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" $PKGS) \
    | "$WORK/zac-benchsuite" ingest -store "$STORE" -commit "$2" >&2
}

echo "bench-regress: $REPS pairs at benchtime $BENCHTIME, $REF (${REF_SHA:0:12}) vs the working tree" >&2
for i in $(seq 1 "$REPS"); do
  echo "bench-regress: pair $i/$REPS" >&2
  bench "$WORK/ref" "$BASE" || exit 2
  bench . "$TREE" || exit 2
done

"$WORK/zac-benchsuite" gate -store "$STORE" -baseline "$BASE" -current "$TREE" \
  -alpha "${BENCH_ALPHA:-0.05}" -min-delta "${BENCH_MIN_DELTA_PCT:-3}"
