# CubeFit build and experiment targets. Everything is plain `go` underneath;
# the targets exist for discoverability.

GO ?= go

.PHONY: all build vet vet-build lint lint-json test test-short race perfgate healthcheck perf size profile cover experiments figure5 figure6 table1 theorem2 fmt

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

# The blocking benchmark gate: three short runs of perfbench, the
# repository benchmark, which boots the service from its log as
# `cubefit-server -wal` does and drives it over loopback HTTP. Each run
# must exit 0 and end on a result line reading "correct":true and
# "failed":0. The floors hold on the durable path what the WAL-off load
# harness it replaced held: 1.5x that harness's committed per-tenant
# rates (15,015.7 ns batched, 87,079.4 ns single), so batch-grow must
# reach 44,400 ops/s and single-churn 7,660, and batch-grow must reach 3x
# single-churn. The result lines land in perfgate.jsonl, in run order;
# each run's full output in .bench_build/perfgate/.
perfgate:
	@set -e; mkdir -p .bench_build/perfgate; : > perfgate.jsonl; \
	for run in batch-grow:3 single-churn:3 restart:1; do \
		w=$${run%:*}; log=.bench_build/perfgate/$$w.out; \
		if ! bash perfbench/run.sh --workload $$w --seconds $${run#*:} --seed 1 > $$log; then \
			cat $$log; echo "perfgate: $$w exited non-zero"; exit 1; \
		fi; \
		cat $$log; \
		tail -n 1 $$log | jq -ce 'select(.correct == true and .failed == 0)' >> perfgate.jsonl || \
			{ echo "perfgate: $$w: the last line is not a result reading \"correct\":true and \"failed\":0"; exit 1; }; \
	done; \
	jq -sre '.[0].metrics.ops_tps.value as $$g | .[1].metrics.ops_tps.value as $$c'\
	' | "batch-grow \($$g) ops/s (floor 44400), single-churn \($$c) ops/s (floor 7660), ratio \($$g / $$c) (floor 3)" as $$m'\
	' | if $$g >= 44400 and $$c >= 7660 and $$g >= 3 * $$c then "perfgate: pass: \($$m)"'\
	' else error("perfgate: below a floor: \($$m)") end' perfgate.jsonl

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
# and group commit on a 100k-tenant fleet), the span tracer's cost per
# admission, one health tick on the same fleet, the headroom auditor's
# refresh after one tenant's mutation, the log's per-record encode and a
# 10k-tenant recovery, each repeated PERF_COUNT times with allocation
# counts, into perf.out, which cubefit-bench converts to perf.json.
# Nothing is gated on it; compare two commits' files with benchstat,
# `cubefit-bench -compare` or by eye. BenchmarkPlaceFleet rebuilds its
# fleet untimed after every tenants/10 timed admissions, and
# BenchmarkPlacerAdmit grows its fleet by the timed ones, so both run a
# fixed 20000 admissions per repetition: the rebuilds stay bounded and two
# runs measure the same fleets.
PERF_COUNT ?= 5
perf:
	@set -e; { \
	$(GO) test -run '^$$' -bench '^BenchmarkPlaceNoRecorder$$' -count $(PERF_COUNT) -benchmem ./internal/core/; \
	$(GO) test -run '^$$' -bench '^BenchmarkPlaceFleet$$' -benchtime 20000x -count $(PERF_COUNT) -benchmem ./internal/core/; \
	$(GO) test -run '^$$' -bench '^BenchmarkPlacerAdmit$$' -benchtime 20000x -count $(PERF_COUNT) -benchmem ./internal/api/; \
	$(GO) test -run '^$$' -bench '^(BenchmarkSpanOverhead|BenchmarkHealthTick)$$' -count $(PERF_COUNT) -benchmem ./internal/api/; \
	$(GO) test -run '^$$' -bench '^BenchmarkHeadroomIncremental$$' -count $(PERF_COUNT) -benchmem .; \
	$(GO) test -run '^$$' -bench '^BenchmarkWALRecord$$' -count $(PERF_COUNT) -benchmem ./internal/obs/; \
	$(GO) test -run '^$$' -bench '^BenchmarkRecoverFleet$$/^tenants10000$$' -count $(PERF_COUNT) -benchmem ./internal/recovery/; \
	} > perf.out
	@cat perf.out
	$(GO) run ./cmd/cubefit-bench -out perf.json perf.out

# The size metric ROADMAP.md tracks (item 12): lines of the Go files git
# tracks outside perfbench/ and testdata, non-test and test. A new file
# counts once it is added to the index.
GO_FILES = git ls-files '*.go' | grep -v '^perfbench/' | grep -v testdata
size:
	@echo "non-test Go lines: $$($(GO_FILES) | grep -v '_test.go$$' | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(GO_FILES) | grep '_test.go$$' | xargs cat | wc -l)"

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
