# Development entry points. `make check` is what CI enforces on every PR.

GO ?= go

.PHONY: check vet doclint build test race bench bench-micro bench-regress benchsuite-smoke benchsuite-report fuzz-smoke fuzz-diff fuzz-diff-smoke serve-smoke telemetry-smoke chaos-smoke

check: vet doclint build race

vet:
	$(GO) vet ./...

# Code-convention gate: every package needs a package doc comment, every
# exported identifier in the engine and serve packages needs its own, and
# every function must be reachable from non-test code (perfbench, its own
# module, counts as a caller). Same arguments as CI's doclint step.
doclint:
	$(GO) run ./cmd/zac-doclint -exported internal/engine,internal/serve -unused -ref ./perfbench ./internal ./cmd ./examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench 'BenchmarkSuite(Sequential|Parallel)' -benchtime 2x .

# Compile-path kernel benchmarks with allocation counts: JV matching, the
# move-grouping partition, SA initial placement, BuildPlan, BuildPlan plus
# schedule, the whole pipeline with scheduling overlapped, and
# preprocessing. The same list bench-regress gates on.
bench-micro:
	$(GO) test -run xxx -bench 'BenchmarkJVDense|BenchmarkJVSparse|BenchmarkJVSparseReturns|BenchmarkPartitionIntoIndependentSets|BenchmarkSAInitial|BenchmarkBuildPlan|BenchmarkBuildPlanSched|BenchmarkStandardOverlap|BenchmarkPreprocess' -benchmem ./internal/matching ./internal/graphalgo ./internal/place ./internal/schedule ./internal/core ./internal/resynth

# Kernel regression gate: the bench-micro list run alternately on a ref
# (default HEAD) and the working tree on this machine, ingested into the
# store and judged by its Mann-Whitney gate: make bench-regress REF=<ref>.
REF ?= HEAD
bench-regress:
	./scripts/bench-regress.sh $(REF)

# Render the observatory store as a markdown report on stdout.
benchsuite-report:
	$(GO) run ./cmd/zac-benchsuite report -store .zac-benchstore

# Observatory smoke (CI): two real kernel benchmark runs ingested into a
# throwaway store, a trend query across both, the gate passing the
# noise-only pair and flagging copies with ns/op or B/op doubled, then the
# report surfaces.
benchsuite-smoke:
	./scripts/benchsuite-smoke.sh

# Round-trip fuzz gate: the pinned workload specs through every registry
# compiler with invariant verification (ZAIR replay, gate-set legality,
# statevector equivalence, fidelity sanity). Nightly-scale runs:
# `go run ./cmd/zac-fuzz -duration 10m`.
fuzz-smoke:
	$(GO) run ./cmd/zac-fuzz -smoke

# Differential oracle gate: cross-check every registry compiler over the
# pinned smoke specs (compile-outcome agreement, ZAIR replay, resource
# accounting, repeat-compile determinism, ablation fidelity ordering) and
# print the per-class divergence summary with feature counters. ~seconds.
fuzz-diff-smoke:
	$(GO) run ./cmd/zac-fuzz -diff -smoke

# Coverage-guided differential fuzzing: the smoke specs seed a mutation
# loop (spec parameters + gate-level edits) steered by per-pass and
# planner-branch feature counters; divergences shrink into corpus/.
# Longer random runs: `go run ./cmd/zac-fuzz -diff -n 100 -mutate 200`.
fuzz-diff:
	$(GO) run ./cmd/zac-fuzz -diff -smoke -mutate 64 -corpus corpus

# Boot zac-serve against a throwaway cache dir, probe /healthz, compile one
# circuit, and check /metrics — the same smoke CI runs.
serve-smoke:
	./scripts/serve-smoke.sh

# Telemetry gate: boot zac-serve with tracing + JSON logs, compile once,
# assert the trace covers admission, both cache tiers, and every pipeline
# pass, and that the Chrome trace_event export (live and -traceout) is
# valid JSON.
telemetry-smoke:
	./scripts/telemetry-smoke.sh

# Resilience gate: the pinned-seed fault-injection suites (admission
# shedding, deadline mapping, journal replay, disk breaker trip/recovery,
# cache self-healing under torn writes) plus an end-to-end crash-recovery
# drill against the zac-serve binary (journal replay on boot, SIGTERM
# drain).
chaos-smoke:
	./scripts/chaos-smoke.sh
