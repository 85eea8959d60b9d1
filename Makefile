# CubeFit build and experiment targets. Everything is plain `go` underneath;
# the targets exist for discoverability.

GO ?= go

.PHONY: all build vet vet-build lint lint-json test test-short race bench bench-compare loadtest loadtest-compare loadtest-wal loadtest-trace loadtest-health healthcheck perf profile cover experiments figure5 figure6 table1 theorem2 fmt

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis package groups. `make lint` fans the cubefit-vet run out
# one group at a time — mirroring the CI lint matrix — so a finding names
# its group and a developer can rerun just the group they touched
# (`make lint-algorithms`). The groups partition the module: every package
# belongs to exactly one.
LINT_GROUPS := algorithms runtime sim tools
LINT_algorithms := ./internal/core/... ./internal/packing/... ./internal/baseline/... ./internal/offline/... ./internal/opt/... ./internal/rebalance/... ./internal/rfi/... ./internal/ratio/...
LINT_runtime := ./internal/api/... ./internal/obs/... ./internal/recovery/... ./internal/metrics/... ./internal/telemetry/... ./internal/clock/... ./internal/rng/...
LINT_sim := ./internal/sim/... ./internal/eventsim/... ./internal/cluster/... ./internal/workload/... ./internal/trace/... ./internal/tpch/... ./internal/failure/... ./internal/costs/... ./internal/headroom/... ./internal/stats/... ./internal/report/...
LINT_tools := . ./cmd/... ./internal/analysis/...

# One shared binary for every lint target: building it once (instead of
# `go run` per group) lets CI cache the compile between the lint and race
# jobs and keeps the matrix steps cheap.
vet-build:
	$(GO) build -o bin/cubefit-vet ./cmd/cubefit-vet

# Project-specific static analysis (see README.md "Static analysis"):
# cubefit-vet enforces the numeric, determinism, fail-closed I/O,
# locking, and allocation invariants; the gofmt check keeps the tree
# formatting-clean. Both are blocking CI gates.
lint: $(addprefix lint-,$(LINT_GROUPS))
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

lint-%: vet-build
	./bin/cubefit-vet $(LINT_$*)

# Machine-readable lint report (vet.json): the full-tree findings plus
# per-analyzer counts, in the -json schema documented in API.md. CI
# uploads it as an artifact; the exit code still gates (non-zero on any
# finding), so `|| true` is deliberately absent.
lint-json: vet-build
	./bin/cubefit-vet -json ./... > vet.json

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector run; mirrors the CI gate and exercises the concurrent
# controller paths (internal/api) and metrics hot paths.
race:
	$(GO) test -race ./...

# Benchmarks with a machine-readable report: the raw `go test -bench`
# text lands in bench.out and cmd/cubefit-bench converts it to
# BENCH_pr10.json for CI archiving and cross-commit diffing. BENCHTIME=1x
# keeps the default run fast; use BENCHTIME=1s (or more) for stable
# numbers.
BENCHTIME ?= 1x
bench:
	$(GO) test -bench=. -benchmem -run '^$$' -benchtime=$(BENCHTIME) . | tee bench.out
	$(GO) run ./cmd/cubefit-bench -out BENCH_pr10.json bench.out

# Diff the fresh benchmark report against the committed previous-PR
# baseline. Exit code 2 (and a REGRESSION marker) when any ns/op, B/op,
# or allocs/op grew by more than BENCH_THRESHOLD; tune the tolerance for
# noisy machines with e.g. `make bench-compare BENCH_THRESHOLD=0.50`.
BENCH_THRESHOLD ?= 0.20
bench-compare: bench
	$(GO) run ./cmd/cubefit-bench -compare BENCH_pr5.json BENCH_pr10.json -threshold $(BENCH_THRESHOLD)

# Closed-loop admission load harness: single vs batched admission over
# loopback HTTP, per-tenant throughput and P50/P99 latency. LOAD_OPS
# bounds the run for CI smoke; LOAD_MINSPEEDUP fails (exit 2) when the
# batch path is not at least that many times faster per admitted tenant —
# conservative because CI runners are slow, shared, and often single-core
# (the batch endpoint's measured advantage grows with cores and ops).
LOAD_OPS ?= 10000
LOAD_MINSPEEDUP ?= 3
loadtest:
	$(GO) run ./cmd/cubefit-load -ops $(LOAD_OPS) -minspeedup $(LOAD_MINSPEEDUP) -o LOAD_pr10.json

# Diff the fresh load report against the committed baseline: per-tenant
# ns/op regressions beyond the threshold fail like bench regressions.
# This is a blocking CI gate (the loadtest job): the -minspeedup floor
# inside `make loadtest` plus this regression diff together pin the
# admission fast path's end-to-end win.
loadtest-compare: loadtest
	$(GO) run ./cmd/cubefit-bench -compare LOAD_baseline.json LOAD_pr10.json -threshold $(BENCH_THRESHOLD)

# Same harness with the write-ahead log on a temp file: every batch and
# single admission is group-committed (flushed and fsynced) before its
# ack, so this drives the durable commit path end to end.
loadtest-wal:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/cubefit-load -ops $(LOAD_OPS) -wal "$$dir/wal.jsonl" -o LOAD_wal.json

# Span-layer overhead gate: the same harness with admission tracing off
# (baseline) and on, diffed. The acceptance bar is ≥95% of untraced
# batch throughput (the span cycle microbenchmarks at ~0.7µs against a
# ~15µs admission); the default threshold adds headroom for the ±10%
# process-to-process scheduler noise that two back-to-back runs see on
# small or shared machines — tighten with TRACE_OVERHEAD=0.05 on a quiet
# multi-core box. The tracing-off report carries no stage columns, so
# the diff compares throughput only.
TRACE_OVERHEAD ?= 0.10
TRACE_OPS ?= 30000
loadtest-trace:
	$(GO) run ./cmd/cubefit-load -ops $(TRACE_OPS) -trace=false -o LOAD_notrace.json
	$(GO) run ./cmd/cubefit-load -ops $(TRACE_OPS) -o LOAD_trace.json
	$(GO) run ./cmd/cubefit-bench -compare LOAD_notrace.json LOAD_trace.json -threshold $(TRACE_OVERHEAD)

# Health sampler overhead: the load harness with the telemetry loop off
# (baseline) and on, diffed like the tracing gate. The sampler scrapes
# the registry once per -health-interval off the admission path, so the
# expected cost is noise; the threshold matches the tracing gate's
# shared-runner headroom.
HEALTH_OVERHEAD ?= 0.10
loadtest-health:
	$(GO) run ./cmd/cubefit-load -ops $(TRACE_OPS) -health=false -o LOAD_nohealth.json
	$(GO) run ./cmd/cubefit-load -ops $(TRACE_OPS) -o LOAD_health.json
	$(GO) run ./cmd/cubefit-bench -compare LOAD_nohealth.json LOAD_health.json -threshold $(HEALTH_OVERHEAD)

# End-to-end health smoke: boot a real server with a fast sampling
# interval and a health log, probe liveness/readiness, admit a tenant,
# read the timeline, shut down gracefully (SIGTERM → readiness-aware
# drain), then replay the recorded log offline — `cubefit-inspect
# health` exits non-zero if the replayed verdict timeline diverges from
# the live one.
HEALTH_ADDR ?= 127.0.0.1:18080
healthcheck:
	$(GO) build -o bin/cubefit-server ./cmd/cubefit-server
	$(GO) build -o bin/cubefit-inspect ./cmd/cubefit-inspect
	@set -e; \
	./bin/cubefit-server -addr $(HEALTH_ADDR) -health-interval 200ms -health-log HEALTH_smoke.jsonl & \
	pid=$$!; trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	curl -fsS http://$(HEALTH_ADDR)/healthz; echo; \
	curl -fsS http://$(HEALTH_ADDR)/readyz; echo; \
	curl -fsS -X POST -H 'Content-Type: application/json' -d '{"id":1,"load":0.4}' http://$(HEALTH_ADDR)/v1/tenants >/dev/null; \
	curl -fsS 'http://$(HEALTH_ADDR)/debug/health' >/dev/null; \
	curl -fsS 'http://$(HEALTH_ADDR)/debug/timeline?series=cubefit_wal_sticky_error&window=30s' >/dev/null; \
	sleep 1; \
	kill -TERM $$pid; wait $$pid; \
	./bin/cubefit-inspect health -log HEALTH_smoke.jsonl

# The per-layer microbenchmark ledger: fleet-scale engine admissions with
# their heap bytes per tenant, the recorder-free admit/depart cycle, the
# placer's commit path per admission (engine, event delivery, re-audit
# and group commit on a 100k-tenant fleet), the headroom auditor's
# refresh after one tenant's mutation, the log's per-record encode and a
# 10k-tenant recovery, each repeated PERF_COUNT times with allocation
# counts, into perf.out. Nothing is gated on it; compare two commits'
# files with benchstat or by eye. BenchmarkPlaceFleet rebuilds its fleet
# untimed after every tenants/10 timed admissions, and BenchmarkPlacerAdmit
# grows its fleet by the timed ones, so both run a fixed 20000 admissions
# per repetition: the rebuilds stay bounded and two runs measure the same
# fleets.
PERF_COUNT ?= 5
perf:
	@set -e; { \
	$(GO) test -run '^$$' -bench '^BenchmarkPlaceNoRecorder$$' -count $(PERF_COUNT) -benchmem ./internal/core/; \
	$(GO) test -run '^$$' -bench '^BenchmarkPlaceFleet$$' -benchtime 20000x -count $(PERF_COUNT) -benchmem ./internal/core/; \
	$(GO) test -run '^$$' -bench '^BenchmarkPlacerAdmit$$' -benchtime 20000x -count $(PERF_COUNT) -benchmem ./internal/api/; \
	$(GO) test -run '^$$' -bench '^BenchmarkHeadroomIncremental$$' -count $(PERF_COUNT) -benchmem .; \
	$(GO) test -run '^$$' -bench '^BenchmarkWALRecord$$' -count $(PERF_COUNT) -benchmem ./internal/obs/; \
	$(GO) test -run '^$$' -bench '^BenchmarkRecoverFleet$$/^tenants10000$$' -count $(PERF_COUNT) -benchmem ./internal/recovery/; \
	} > perf.out
	@cat perf.out

# CPU and allocation profiles of a representative consolidation run;
# inspect with `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) run ./cmd/cubefit-sim -quick -cpuprofile cpu.prof -memprofile mem.prof
	@echo "profiles written: cpu.prof mem.prof (go tool pprof <file>)"

cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Paper experiments (see EXPERIMENTS.md for expected shapes).
experiments: figure5 figure6 theorem2

figure5:
	$(GO) run ./cmd/cubefit-cluster

figure6:
	$(GO) run ./cmd/cubefit-sim

table1:
	$(GO) run ./cmd/cubefit-sim -table1

theorem2:
	$(GO) run ./cmd/cubefit-ratio

fmt:
	gofmt -w .
