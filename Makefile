# Developer entry points. `make verify` is the gate every change must pass:
# vet, build, and the full test suite (chaos matrix included) under the race
# detector.

GO ?= go

.PHONY: verify build test race vet fuzz chaos bench benchdiff cover cachesim schemes loadgen cluster perfbench-check

verify: vet build race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Short fuzz pass over the hostile-input parsers (X-Etag-Config decoding,
# map building, cache-trace parsing). The corpus seeds also run as part of
# plain `go test`.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeMap -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzBuildMap -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzParseTrace -fuzztime=10s ./internal/cachesim/
	$(GO) test -run=^$$ -fuzz=FuzzDeltaRoundTrip -fuzztime=10s ./internal/delta/

# Scheme-matrix smoke: the conformance suite (golden table, shape claims,
# determinism, cancellation under -race) plus the live grid via cmd/schemes.
# See EXPERIMENTS.md, "Scheme matrix".
schemes:
	$(GO) test -race -count=1 -run 'SchemeMatrix|Scheme|Delta|EarlyHints|Negative' \
		./internal/harness/ ./internal/browser/ ./internal/delta/ ./catalyst/
	$(GO) run ./cmd/schemes

# Cache-policy smoke: replay the committed harness-exported trace and a
# synthetic Zipf/lognormal trace through every policy, checking ratios stay
# within [0,1], no policy beats the FOO-style offline bound, and every
# policy scores hits. See EXPERIMENTS.md, "Cache policies vs the offline
# optimal bound".
cachesim:
	$(GO) run ./cmd/cachesim -trace internal/cachesim/testdata/harness_quick.trace -budget 40% -check
	$(GO) run ./cmd/cachesim -synth -requests 60000 -objects 4000 -budget 2% -check

# Benchmark sweep with pinned -benchtime/-count so runs are benchstat-
# comparable across commits. Output lands in BENCH_<date>.json (`go test
# -json` stream); extract the text lines for benchstat with:
#   jq -r 'select(.Action=="output") | .Output' BENCH_A.json > a.txt
#   benchstat a.txt b.txt
# See EXPERIMENTS.md, "Cache-core and middleware micro-benchmarks".
BENCH_FILE ?= BENCH_$(shell date +%F).json
bench:
	$(GO) test -json -run '^$$' -bench . -benchtime 1s -count 6 \
		./catalyst/ ./internal/cachestore/ ./internal/server/ > $(BENCH_FILE)
	@echo "wrote $(BENCH_FILE)"

# Run the benchmark sweep and compare it against the newest committed
# BENCH_*.json using the in-repo, dependency-free cmd/benchdiff. Fails
# loudly when no committed baseline exists — a diff against nothing is not
# a regression gate. BENCH_TOLERANCE (a percentage) turns the comparison
# into a gate: exit 1 when any benchmark's median regressed beyond it.
BENCH_TOLERANCE ?= 0
benchdiff:
	@base=$$(git ls-files 'BENCH_*.json' | sort | tail -1); \
	if [ -z "$$base" ]; then \
		echo "benchdiff: no committed BENCH_*.json baseline found; run 'make bench' and commit the result first" >&2; \
		exit 1; \
	fi; \
	echo "baseline: $$base"; \
	$(MAKE) bench BENCH_FILE=BENCH_head.json && \
	$(GO) run ./cmd/benchdiff -tolerance $(BENCH_TOLERANCE) "$$base" BENCH_head.json

# Benchmark-driver guard. perfbench/ is its own module (see its go.mod), so
# `go build ./...` here never compiles it, yet it builds against
# server.New, server.Options and catalyst.WithMetricsOptions. This vets it
# and runs its stack-equivalence and metric-set tests (~10 s), so an API
# change that breaks the driver fails here rather than inside a benchmark
# run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 \
		-run 'TestTracedStackMatchesCatalystd|TestMetricSetMatchesBenchmarkJSON' ./...

# Socket-level load smoke: drive the in-process demo site closed-loop over
# real loopback sockets for a couple of seconds and emit both the JSON
# artifact and a benchdiff-compatible bench stream. loadgen exits non-zero
# when no request succeeds, so this doubles as an end-to-end serving-path
# check. See EXPERIMENTS.md, "Socket-level load generation".
loadgen:
	$(GO) run ./cmd/loadgen -self -c 8 -duration 2s \
		-json loadgen.json -bench loadgen.bench.json

# Coverage with a floor so the suite cannot silently shed coverage. The
# floor trails the measured total (80.9% when set) by a safety margin;
# raise it as coverage grows.
COVERAGE_FLOOR ?= 80.0
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || { \
		echo "cover: total coverage $$total% fell below the $(COVERAGE_FLOOR)% floor" >&2; exit 1; }

# Cluster smoke: the multi-instance edge-tier cell under -race — three
# in-process catalystd instances serving two tenants through the
# consistent-hash ring, telemetry-verified per-tenant hit ratios, hot-map
# adoption on a non-owner, and a kill-one-node assertion — plus the
# tenant/cluster unit suites and one live run via the example. See
# DESIGN.md §13, "Tenant-aware edge tier".
cluster:
	$(GO) test -race -count=1 -run 'ClusterCell|Ring|Exchange|Tenant|Resolver|Context|Handler|ParseConfig' \
		./internal/harness/ ./internal/cluster/ ./internal/tenant/ ./catalyst/ ./cmd/catalystd/
	$(GO) run ./examples/cluster

# Chaos gate: the fault-injection and overload suites under the race
# detector — the browser-level chaos matrix, the middleware degradation
# ladder, the netsim overload fault modes, the resilience primitives, and
# kill-under-drain — then the fault-injection table: warm PLT / errors /
# retries per fault cell for both schemes (see EXPERIMENTS.md, "Fault
# model and chaos experiment").
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Overload|Ladder|Breaker|Drain|Gate|Budget|Serve|Stall|Handler' \
		./internal/browser/ ./internal/netsim/ ./internal/resilience/ ./internal/server/ ./catalyst/
	$(GO) run ./examples/chaos
