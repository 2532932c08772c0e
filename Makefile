GO ?= go

# The benchmark workload behind make bench / bench-check: fixed experiment,
# scale and seed so successive runs are comparable.
BENCH_ARGS ?= -exp fig3 -scale 0.25 -reps 3 -seed 1
BENCH_THRESHOLD ?= 1.25

.PHONY: build test verify verify2 bench bench-check bench-check-report bench-go bench-smoke bench-workers bench-workers-smoke bench-plans-smoke bundle-smoke trace-smoke perfbench-test ci

build:
	$(GO) build ./...

# Failing test binaries leave post-mortem debug bundles here (one directory
# per test binary, via flight.DumpOnTestFailure); CI uploads the tree.
TEST_BUNDLE_DIR ?= test-failure-bundles

test:
	rm -rf $(TEST_BUNDLE_DIR)
	KBREPAIR_TEST_BUNDLE=$(abspath $(TEST_BUNDLE_DIR)) $(GO) test ./...

# Tier-1 verify: the gate every change must pass.
verify: build test

# Tier-2 verify: static analysis plus race-enabled tests. Slower; run
# before merging anything that touches shared state or internal/obs.
verify2:
	$(GO) vet ./...
	$(GO) test -race ./...

# bench writes the machine-readable perf baseline (environment stamp,
# metrics snapshot, five-number latency summaries) to BENCH.json.
bench:
	$(GO) run ./cmd/kbbench $(BENCH_ARGS) -json BENCH.json

BENCH.json:
	$(MAKE) bench

# bench-check re-runs the same workload and fails (non-zero exit) if any
# latency metric's mean — or any rule body's total backtrack-node count
# (the paper's tree-size cost model, from the report's profile section) —
# regressed beyond BENCH_THRESHOLD x the baseline.
bench-check: BENCH.json
	$(GO) run ./cmd/kbbench $(BENCH_ARGS) -json BENCH_new.json -baseline BENCH.json -threshold $(BENCH_THRESHOLD)

# bench-check-report is the CI-friendly report-only variant: prints the
# comparison but always exits zero (machines differ across runners).
bench-check-report: BENCH.json
	$(GO) run ./cmd/kbbench $(BENCH_ARGS) -json BENCH_new.json -baseline BENCH.json -threshold $(BENCH_THRESHOLD) -regress-ok

# bench-go runs the Go micro-benchmarks (allocation guards and hot-path
# timings) — complementary to the kbbench workload baseline.
bench-go:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs each homo, event-ring (BenchmarkRing*)
# and per-rule attribution (BenchmarkAttr*) benchmark — the last two in
# internal/obs — exactly once: a fast CI check that the benchmark suite
# (the allocation guards included) still builds and executes, without
# timing anything.
bench-smoke:
	$(GO) test -bench 'Homo|Ring|Attr' -benchtime=1x ./internal/...

# bench-workers runs the same workload at -workers 1 and -workers 4 and
# compares the two reports: the parallel-speedup evidence for the README
# table (regenerates results/bench_workers{1,4}.json). Conflict detection,
# Π-checking, position ranking and fix generation respond to -workers; the
# chase and the tracker update run inline at every worker count. The
# -baseline leg uses -regress-ok because the point is the printed
# comparison, not a gate.
bench-workers:
	$(GO) run ./cmd/kbbench $(BENCH_ARGS) -workers 1 -json results/bench_workers1.json
	$(GO) run ./cmd/kbbench $(BENCH_ARGS) -workers 4 -json results/bench_workers4.json \
		-baseline results/bench_workers1.json -threshold 1.0 -regress-ok

# bench-workers-smoke is the CI variant: a scaled-down workload at both
# worker counts, discarding the reports — it proves the multi-worker bench
# path (the par fan-outs + the report comparison) still runs end to end,
# without pretending a shared runner can time it.
bench-workers-smoke:
	$(GO) run ./cmd/kbbench -exp fig3 -scale 0.1 -reps 1 -seed 1 -workers 1 -json results/bench_workers_smoke1.json
	$(GO) run ./cmd/kbbench -exp fig3 -scale 0.1 -reps 1 -seed 1 -workers 4 -json results/bench_workers_smoke4.json \
		-baseline results/bench_workers_smoke1.json -threshold 1.0 -regress-ok
	rm -f results/bench_workers_smoke1.json results/bench_workers_smoke4.json

# bench-plans-smoke is the plan-quality gate: -plans-check makes kbbench
# fail when any profiled body ran without a compiled-plan annotation (the
# legacy adaptive kernel is gone; only static and wcoj plans exist). The
# grep then asserts the mode annotations actually reached the report.
bench-plans-smoke:
	rm -rf smoke-plans && mkdir -p smoke-plans
	$(GO) run ./cmd/kbbench -exp fig3 -scale 0.1 -reps 1 -seed 1 \
		-json smoke-plans/bench.json -plans-check
	grep -q '"mode"' smoke-plans/bench.json

# bundle-smoke exercises the post-mortem pipeline end to end: generate a
# KB, repair it with an exit debug bundle and a recorded journal, then
# validate that the bundle parses and renders with kbdump (including the
# journal header and KB digest sections). The run has no -trace, so the
# required "== Trace ==" section proves the bundle's trace digest comes
# from the event ring every run keeps.
bundle-smoke:
	rm -rf smoke-bundle && mkdir -p smoke-bundle
	$(GO) run ./cmd/kbgen -facts 120 -ratio 0.2 -cdds 5 -seed 1 -quiet -out smoke-bundle/smoke.kb
	$(GO) run ./cmd/kbrepair -kb smoke-bundle/smoke.kb -auto -seed 1 \
		-journal smoke-bundle/journal.json -debug-bundle smoke-bundle/bundle
	$(GO) run ./cmd/kbdump -metrics smoke-bundle/bundle > smoke-bundle/report.txt
	grep -q '^== Trace ==' smoke-bundle/report.txt

# trace-smoke exercises the causal-tracing pipeline end to end: generate a
# KB, repair it with -trace, then require kbtrace to produce a non-empty
# waterfall (it exits non-zero when the trace has no question spans) and a
# self-validated Chrome trace_event export.
trace-smoke:
	rm -rf smoke-trace && mkdir -p smoke-trace
	$(GO) run ./cmd/kbgen -facts 120 -ratio 0.2 -cdds 5 -seed 1 -quiet -out smoke-trace/smoke.kb
	$(GO) run ./cmd/kbrepair -kb smoke-trace/smoke.kb -auto -seed 1 -trace smoke-trace/run.trace
	$(GO) run ./cmd/kbtrace -waterfall smoke-trace/run.trace
	$(GO) run ./cmd/kbtrace -critical-path -chrome smoke-trace/chrome.json smoke-trace/run.trace

# perfbench-test vets and tests the perfbench module. go test ./... at the
# root skips it (it is its own module), yet it imports internal/par,
# inquiry, core and conflict, so a change there can break it silently.
perfbench-test:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# ci is the whole gate in one target, mirroring .github/workflows/ci.yml
# for environments without Actions.
ci: verify verify2 perfbench-test bench-smoke bench-check-report bench-plans-smoke bundle-smoke trace-smoke
