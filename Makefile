# Mirrors .github/workflows/ci.yml so local runs and CI stay in sync.
GO ?= go

.PHONY: all build vet fmt test perfbench race race-collective race-serve race-fault race-client race-spill race-place bench bench-collective ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The benchmark (perfbench/) is a module of its own, so `go test ./...`
# at the root does not enter it; vet and test it here so a library API
# change that breaks the benchmark fails the build.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/mpool ./... -short

# Collective-I/O differential + queue stress tests under the race
# detector (drxmp_collective_par_test.go, drxmp_wb_diff_test.go,
# drxmp_rc_diff_test.go, internal/pfs queue/close-flusher stress,
# internal/mpiio collective + file-cache suites). The heavy suites skip
# under the -short race target above and run full-size here.
race-collective:
	$(GO) test -race -run 'Collective|WriteBehind|CloseFlusher|ReadCache|FileCache' . ./internal/pfs ./internal/mpiio

# Serving-tier e2e under the race detector: the HTTP front end's
# admission control, cross-client coalescing and single-flight fills
# are all cross-goroutine by construction (drxmp_serve_diff_test.go's
# 32-client cold burst, internal/serve unit suites).
race-serve:
	$(GO) test -race -run 'Serve|Admission|Coalescer|SingleFlight' . ./internal/serve ./internal/exp

# Fault-path + erasure suites under the race detector: degraded reads
# race late straggler completions against reconstruction by design
# (private-buffer handoff in internal/pfs), and the fault regression
# tests drive injected failures through the queue, cache, serving and
# collective layers (parity differential + degraded e2e at the root,
# internal/ec property tests, internal/pfs degraded/fault suites,
# internal/mpiio fallback suites, internal/serve panic-path pins).
race-fault:
	$(GO) test -race -run 'Erasure|Degraded|Fault' . ./internal/ec ./internal/pfs ./internal/mpiio ./internal/serve

# Resilient-client suites under the race detector: hedged reads race
# two attempts against each other by design, the breaker and latency
# tracker are shared across calls, and the chaos e2e suites
# (chaos_e2e_test.go) kill and restart the serving tier under a
# concurrent retrying workload while checking for leaked goroutines and
# admission budget. Admission-cancellation regressions ride along.
race-client:
	$(GO) test -race -count=1 ./internal/drxclient
	$(GO) test -race -run 'Chaos|AdmissionCancel|RequestTimeout|ShedOverload' . ./internal/serve

# Tiered-cache suites under the race detector: the spill store is
# shared by every reader of a file (demotions, promotions and punches
# interleave from concurrent ReadThrough calls), read-ahead fetches are
# clipped against the spill tier under the same lock, and the tiered
# differential pins the spill-off path byte-identical to the RAM-only
# stack.
race-spill:
	$(GO) test -race -count=1 ./internal/spill
	$(GO) test -race -run 'Spill|Tiered|ReadAhead' . ./internal/mpiio ./internal/exp ./internal/serve

# Placement suites under the race detector: the policy carving is
# consulted concurrently by every rank of a collective, elected
# flushers interleave FlushOwned sweeps with other ranks' absorbs on
# the shared cache, and the root differential suite pins every policy
# byte-identical to the serial baseline with write-behind + spill on
# (internal/place property suite, drxmp_place_diff_test.go, the
# cbnodes policy regression and mpiio flush-election paths).
race-place:
	$(GO) test -race -count=1 ./internal/place
	$(GO) test -race -run 'Place|Affinity|FlushElect' . ./internal/mpiio

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Collective-benchmark smoke: one iteration of the Collective
# benchmarks (parallel vs serial two-phase, FIFO vs elevator
# scheduling, write-behind, and the read-cache warm/no-cache pair),
# plus the BENCH_collective.json artifact (MB/s + seeks for FIFO vs
# elevator, fixed vs adaptive cb_nodes, the E19 write-behind policy
# rows, the E20 read-cache no-cache/cold/warm rows, the ServeBench
# serving-tier rows: requests/s, coalesce ratio, single-flight hit
# rate, the E21 degraded-read rows: read p99 + reconstruction
# counters for healthy/wait-straggler/degraded regimes, the E22
# resilient-client rows: read p99 + hedge win rate for plain/retry/
# hedged clients, and the E24 placement rows: warm slab-rewrite MB/s +
# seeks + owned sweeps + domain-local exchange bytes) that tracks the
# perf trajectory across PRs.
bench-collective:
	$(GO) test -bench=Collective -benchtime=1x -run '^$$' .
	$(GO) run ./cmd/drxbench -benchjson BENCH_collective.json
	@cat BENCH_collective.json

ci: build vet fmt test perfbench race race-collective race-serve race-fault race-client race-spill race-place bench bench-collective
