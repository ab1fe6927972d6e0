# Development workflow for the ATraPos reproduction.
#
#   make check        - everything CI runs: format, vet, static analysis, build,
#                       test, race, bench smoke, log-device smoke, group-commit
#                       smoke, executed-storage smoke, fault-scenario fuzz
#                       smoke, BENCH.json well-formedness
#   make race         - concurrent-adaptation packages under the race detector
#   make bench        - full hot-path microbenchmarks with allocation stats
#   make bench-json   - append a BENCH.json perf-trajectory record
#   make bench-trace  - traced adaptive-drift run: Perfetto trace + metrics CSV
#   make fuzz-smoke   - bounded seeded fault-scenario fuzz run (FUZZ_SEED=...)
#
# The experiment and fuzz targets run through the parallel point scheduler
# (atrapos-bench -parallel, default GOMAXPROCS); results are bit-identical at
# any concurrency, so only wall time varies across hosts.

GO ?= go
FUZZ_SEED ?= 42

.PHONY: check fmt vet staticcheck build test race bench-smoke bench bench-json bench-verify bench-devices bench-groupcommit bench-executed bench-trace fuzz-smoke

check: fmt vet staticcheck build test race bench-smoke bench-devices bench-groupcommit bench-executed bench-trace fuzz-smoke bench-verify

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Deeper static analysis when the tools are installed (CI installs them);
# environments without them fall back to the vet pass above so `make check`
# works offline with a stock toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; go vet (above) is the fallback"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages where the planner goroutine installs snapshots concurrently
# with executing workers, the lock table's bucket and held-list shards, plus
# the harness pool's concurrent sweep/fuzz paths (point scheduling, the
# allocation-measurement token, parallel bit-identity); all of it must stay
# clean under the race detector. The harness pass filters to the pool tests
# so the race-slowed run stays bounded.
race:
	$(GO) test -race ./internal/engine ./internal/partition ./internal/lock
	$(GO) test -race -run 'TestPool|TestPointWorkers|TestParallelSweepBitIdentical|TestFuzzShardDeterminism|TestMeasureParallel' ./internal/harness

# A short benchmark pass so hot-path regressions (time or allocations) fail
# loudly in review; see DESIGN.md section 7 for the invariants. The lock
# benchmark fails if ReleaseAll's cost grows with the lock table's bucket
# count again.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkExecute -benchtime 100x -benchmem ./internal/engine
	$(GO) test -run '^$$' -bench 'BenchmarkTableAcquireReleaseAll$$' -benchtime 10000x -benchmem ./internal/lock

bench:
	$(GO) test -run '^$$' -bench BenchmarkExecute -benchmem ./internal/engine
	$(GO) test -run '^$$' -bench BenchmarkTableAcquireReleaseAll -benchmem ./internal/lock

bench-json:
	$(GO) run ./cmd/atrapos-bench -json

# A tiny fig-log-devices run: the heterogeneous log-device sweep must keep
# producing its crossover table (the harness test asserts the shift; this
# smoke keeps the CLI path exercised).
bench-devices:
	$(GO) run ./cmd/atrapos-bench -experiment fig-log-devices

# The coalescing group-commit sweep: write-combining on/off across device
# layouts. The smoke keeps the experiment's crossover table producible from
# the CLI; the schema gates in -verify assert the coalescing wins.
bench-groupcommit:
	$(GO) run ./cmd/atrapos-bench -experiment fig-group-commit

# Executed storage mode: runs every island level in both priced (virtual
# time) and executed (real sharded hash backend, wall-clock) modes, fits the
# cost-model calibration, and asserts the fine-vs-coarse crossover direction
# agrees between the two on the chiplet profile.
bench-executed:
	$(GO) run ./cmd/atrapos-bench -experiment fig-executed

# The tracing smoke: run the traced adaptive-drift scenario and write the
# Chrome-trace JSON (Perfetto-loadable) and metrics CSV. The command validates
# both documents itself (trace-event schema, CSV header and row shape, span
# ring drop accounting), so this target failing means the exporter regressed.
# Outputs land in ./trace-out/ (gitignored; CI uploads them on failure).
bench-trace:
	@mkdir -p trace-out
	$(GO) run ./cmd/atrapos-bench -trace trace-out/drift.json -metrics trace-out/drift.csv

# A bounded, fixed-seed run of the fault-scenario fuzzer: 100 composed
# {workload, machine, device layout, fault schedule} scenarios, every standing
# invariant checked on each. Scenarios fan out across the point scheduler
# (verdicts are seed-derived, so concurrency never changes them); on a
# multi-core host the 100 finish in about the old 25-serial wall time.
# Deterministic per seed; override with `make fuzz-smoke FUZZ_SEED=1007` to
# sweep a different slice.
fuzz-smoke:
	$(GO) run ./cmd/atrapos-bench -fuzz 100 -seed $(FUZZ_SEED)

# BENCH.json is an appending trajectory; the schema gate keeps a bad append
# from corrupting it silently.
bench-verify:
	$(GO) run ./cmd/atrapos-bench -verify
