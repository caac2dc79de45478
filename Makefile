# Make targets are the single entry points for humans and CI
# (.github/workflows/ci.yml calls exactly these).

GO ?= go

.PHONY: build test test-full test-faults test-relay test-server test-obs test-stress test-shard fuzz race profile profile-chain bench bench-contract-smoke fmt fmt-check vet loc examples examples-full validate-scenarios

build:
	$(GO) build ./...

# Fast tier: the CI gate. Heavy workload campaigns downshift or skip
# under -short; run test-full for the complete suite.
test:
	$(GO) test -short ./...

test-full:
	$(GO) test ./...

# Dependability gate: the full golden-artifact invariance harness
# (every built-in spec and shipped scenario byte-identical at
# -parallel 1 vs 8) plus a short D1 crash/recover campaign run through
# the real CLI.
test-faults:
	$(GO) test -run 'Golden' -v ./internal/experiments
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ethrepro -only D1 -scale small -repeats 2 -parallel 4 -out "$$dir/d1"

# Relay gate: the full protocol-conformance suite (liveness,
# duplicate-fetch, bandwidth-accounting and determinism invariants for
# every registered relay protocol), the R1/R2 + relay-compare golden
# invariance harness, a `go test -cover` summary for internal/p2p/...,
# and one R1 shoot-out campaign run through the real CLI.
test-relay:
	$(GO) test -v ./internal/p2p/relay/
	$(GO) test -run 'TestGoldenRelaySpecsParallelInvariance|TestGoldenScenarioArtifactsParallelInvariance/relay-compare.json' -v -timeout 30m ./internal/experiments
	$(GO) test -cover ./internal/p2p/...
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ethrepro -only R1 -scale small -repeats 2 -parallel 4 -out "$$dir/r1"

# Campaign-service gate: the store conformance suite and the HTTP
# handler/lifecycle suite under the race detector (SSE, queueing and
# cancellation are concurrency-heavy; the runs-per-campaign limit test
# rides in the server suite), the shared resolve/seal rules both front
# ends run on (interrupted-seal regression included), the HTTP-vs-CLI
# byte-identity golden gate, and the cmd/ethserve end-to-end smoke
# test (boot the binary path, submit over HTTP, fetch artifacts,
# digest-verify the run directory with ethanalyze).
test-server:
	$(GO) test -race -short -v ./internal/store/ ./internal/server/ ./cmd/ethserve/
	$(GO) test -race -run 'TestSeal|TestResolve' -v ./internal/scenario/
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ethrepro -only T1 -repeats 2 -out "$$dir/run"; \
	$(GO) run ./cmd/ethanalyze -verify "$$dir/run"

# Observability gate: the tracing-on-vs-off golden invariance harness
# (byte-identical artifacts and equal Merkle roots with the tracer
# attached), the obs instrument/tracer suites, and the server
# metrics/SSE/pprof handler tests — concurrency-heavy parts under the
# race detector.
test-obs:
	$(GO) test -run 'TestGoldenTracingInvariance|TestTelemetry' -v ./internal/experiments
	$(GO) test -race -v ./internal/obs/
	$(GO) test -race -run 'Metrics|SSE|Healthz|PProf|Profile|Telemetry|RetryAfter|Backpressure' -v ./internal/server/
	$(GO) test -run 'Telemetry|Trace' -v ./cmd/ethrepro/ ./cmd/ethanalyze/

# Scale gate for the struct-of-arrays node core. Short tier: the
# 10k-node bytes-per-node heap ceiling. Full tier: the 100k-node
# scenario at its full size, byte-identical at -parallel 1 vs 8 and,
# sharded, at 1 vs 6 workers with the run's exact event, window, stall
# and merge counts pinned (opt-in via STRESS100K, which this target
# sets). The tier's events/sec and bytes/node are columns of the
# telemetry.json that `ethrepro -scenario
# examples/scenarios/stress-100k.json -scale medium -out DIR` seals.
test-stress:
	$(GO) test -run TestBytesPerNodeCeiling -v ./internal/p2p/
	STRESS100K=1 $(GO) test -run 'TestGoldenStress100kParallelInvariance|TestGoldenShardStress100kInvariance' -v -timeout 90m ./internal/experiments

# Sharded-execution gate. The conductor's window-loop invariants (lane
# panic containment included), the engine queue's differential test
# against the reference heap, the RNG fast path's draw-for-draw test
# against math/rand/v2, the transport's lane-layout table (flight slab
# reuse, observer views, parent interning at injection, conservation,
# counter fold, merge time discipline, relay conformance on region
# lanes), the campaign-level shard-count and
# lookahead-bound invariance suites, the measurement fold's
# raw-log-vs-streaming table (one-lane and region lanes) and the CLI's
# -shards scoping test run under the race detector — they
# drive the cross-shard merge, the phase barriers and the lane-local
# pools with real concurrency — then the shard-axis golden harness
# runs its exhaustive acceptance sweep (SHARDGOLDEN=full:
# every builtin spec and shipped scenario, shards {1,2,6} × -parallel
# {1,8} byte-identical run directories; the plain `go test` tiers
# check the grid corners on the short core instead, to stay inside
# the package timeout). The full-size 100k sharded golden lives in
# test-stress (STRESS100K).
test-shard:
	$(GO) test -race -run 'TestConductor|TestEngineMatchesReferenceOrder|TestRNGFastPathMatchesRand' -v ./internal/sim/
	$(GO) test -race -run 'TestSharded|TestMessagePoolReuse|TestFlightViewMatchesMessage|TestParentInternedAtInjection|TestTransportConservation|TestFoldLanes|TestMergeCross|TestProtocolConformance|TestStreamingMatchesRawLog|TestModesAgree|TestRawLogPinned' -v ./internal/p2p/... ./internal/core/ ./internal/measure/
	$(GO) test -race -run 'TestShardsFlag' -v ./cmd/ethrepro/
	SHARDGOLDEN=full $(GO) test -run 'TestGoldenShard' -v -timeout 90m ./internal/experiments

# Fuzz lane: run every fuzz target for a bounded burst on top of the
# committed seed corpora (which already execute as regular tests).
fuzz:
	$(GO) test -fuzz FuzzEngineOrder -fuzztime 30s ./internal/sim/
	$(GO) test -fuzz FuzzRNGFastPath -fuzztime 15s ./internal/sim/
	$(GO) test -fuzz FuzzCompactReconstruct -fuzztime 30s ./internal/p2p/relay/
	$(GO) test -fuzz FuzzAdjacencyChurn -fuzztime 30s ./internal/p2p/
	$(GO) test -fuzz FuzzScenarioParse -fuzztime 30s ./internal/scenario/
	$(GO) test -fuzz FuzzSweepExpand -fuzztime 30s ./internal/scenario/
	$(GO) test -fuzz FuzzSelectUncles -fuzztime 30s ./internal/chain/
	$(GO) test -fuzz FuzzHeaderEncoding -fuzztime 15s ./internal/types/

# The whole short tier under the race detector. internal/experiments
# alone needs 530-890 s here on a 2-vCPU box, past go test's default
# 10-minute package timeout, so the target carries its own.
race:
	$(GO) test -race -short -timeout 60m ./...

# profile / profile-chain are tools, not gates: nothing compares their
# output. The allocation gates are the tier-1 Test...Ceiling tests.
#
# Where a big overlay run spends its time: the bench harness's
# overlay-10k campaign (10,000 nodes, 40 blocks, one engine; three runs,
# overlay build off the clock) under the CPU profiler, then the top 25
# functions. docs/PERFORMANCE.md ("The message") keeps the tops this
# printed before and after each change to the deliver/fan-out loop; the
# stage benchmarks beside it are
# `go test -run '^$' -bench 'DeliverRedundant|Fanout|Send' -benchmem ./internal/p2p/`.
profile:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -run '^$$' -bench BenchmarkOverlay10k -benchtime 3x -cpuprofile "$$dir/cpu.prof" -o "$$dir/core.test" ./internal/core; \
	$(GO) tool pprof -top -nodecount=25 "$$dir/core.test" "$$dir/cpu.prof"

# Where a mined block spends its time: the chain-only Monte-Carlo
# (BenchmarkChainOnly, 50,000 blocks a run: mining race, uncle
# selection, block assembly and hashing, tree insert, analysis view)
# under the CPU profiler, then the top 25 functions. docs/PERFORMANCE.md
# ("The block") keeps the tops this printed before and after the
# per-block path was rebuilt.
profile-chain:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -run '^$$' -bench BenchmarkChainOnly -benchtime 5x -cpuprofile "$$dir/cpu.prof" -o "$$dir/core.test" ./internal/core; \
	$(GO) tool pprof -top -nodecount=25 "$$dir/core.test" "$$dir/cpu.prof"

# The repo benchmark (BENCHMARK.json), the one definition of a
# performance number: by hand, an end-to-end set, a traced set and the
# full rungs of all four workloads (several minutes). bench/README.md
# has the contract-run flags, the metrics and how to pair two commits.
bench:
	$(GO) run ./bench

# One traced contract run of the repo benchmark (BENCHMARK.json) on the
# sharded 10k overlay, ~25 s. Tracing is what makes the rungs execute,
# and the rungs are the only automated callers of the p2p/sim API
# surface bench/ drives (tier-1 merely compiles them), so this is the
# check that a transport refactor kept that surface working. Fails
# unless the final JSON line reports a correct run with no failures.
bench-contract-smoke:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./bench --workload overlay-10k-sharded --seed 1 --seconds 10 --trace 1 | tee "$$tmp"; \
	tail -n 1 "$$tmp" | grep -q '"correct":true' || { echo "bench-contract-smoke: run not correct"; exit 1; }; \
	tail -n 1 "$$tmp" | grep -q '"failed":0[,}]' || { echo "bench-contract-smoke: failed operations"; exit 1; }

# Build and execute every example program, downscaled (-short): each
# is a documented entry point, so CI proves they all still run.
examples:
	@set -e; for d in examples/*/; do \
		[ -f "$$d/main.go" ] || continue; \
		echo "== go run ./$$d -short"; \
		$(GO) run "./$$d" -short; \
	done

# Full-size examples: every example at its full (non -short) scale.
examples-full:
	@set -e; for d in examples/*/; do \
		[ -f "$$d/main.go" ] || continue; \
		echo "== go run ./$$d"; \
		$(GO) run "./$$d"; \
	done

# Parse, validate and compile every shipped scenario file (sweep
# expansion included) without running the campaigns.
validate-scenarios:
	@set -e; for f in examples/scenarios/*.json; do \
		echo "== validate $$f"; \
		$(GO) run ./cmd/ethrepro -scenario "$$f" -list >/dev/null; \
	done

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Size of the program: Go lines outside tests and outside bench/, per
# package and in total. "lines" is every line; "code" leaves out blank
# lines and whole-line comments — the figure a simplification is judged
# on, since deleting comments must not count as deleting code.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort | xargs awk ' \
		FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$$/, "", pkg); if (!(pkg in lines)) order[++n] = pkg } \
		{ lines[pkg]++; total++ } \
		!/^[ \t]*(\/\/|$$)/ { code[pkg]++; totalcode++ } \
		END { printf "%-28s %7s %7s\n", "package", "lines", "code"; \
			for (i = 1; i <= n; i++) printf "%-28s %7d %7d\n", order[i], lines[order[i]], code[order[i]]; \
			printf "%-28s %7d %7d\n", "total", total, totalcode }'
