# Make targets are the single entry points for humans and CI
# (.github/workflows/ci.yml calls exactly these).

GO ?= go

.PHONY: build test test-full test-faults test-relay test-server dataset-smoke test-obs test-stress test-shard fuzz fuzz-smoke race profile profile-shard profile-chain profile-tx profile-mem bench bench-contract-smoke fmt fmt-check vet loc reach examples examples-full validate-scenarios

build:
	$(GO) build ./...

# Fast tier: the CI gate. Heavy workload campaigns downshift or skip
# under -short; run test-full for the complete suite.
test:
	$(GO) test -short ./...

test-full:
	$(GO) test ./...

# Dependability gate: the full golden-artifact invariance harness
# (every built-in spec and shipped scenario byte-identical at the
# golden matrix's corners: -parallel 1 vs 8 on the serial loop, the
# conductor at 2 and 6 workers), the whole grid pin set (every cross-run ablation's
# metrics held bit-equal to the bespoke bodies the grids replaced,
# including the workload grids E1/R1/R2 that -short skips) plus a short
# D1 crash/recover campaign run through the real CLI.
test-faults:
	$(GO) test -run 'Golden|TestGridMetricsPinned' -v ./internal/experiments
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ethrepro -only D1 -scale small -repeats 2 -parallel 4 -out "$$dir/d1"

# Relay gate: the conformance suite in internal/p2p/relay (liveness,
# duplicate-fetch, bandwidth-accounting and determinism invariants plus
# one pinned digest per relay discipline on both schedulers, driving the
# disciplines in internal/p2p/relay.go through a real network) and its
# zero-allocation ceiling, the R1/R2 + relay-compare golden invariance
# harness, a `go test -cover` summary for internal/p2p/... (which runs
# the transport tests too), and one R1 shoot-out campaign run through
# the real CLI.
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

# The open-data path end to end: ethmeasure writes a small sealed JSONL
# dataset (a 2 tx/s workload, whose block records carry tx links, so
# every figure has data),
# ethanalyze -verify checks its digests, and ethanalyze -in must print
# Figures 1 through 7 from the logs alone.
dataset-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/" ./cmd/ethmeasure ./cmd/ethanalyze; \
	"$$dir/ethmeasure" -nodes 120 -blocks 40 -txrate 2 -out "$$dir/ds"; \
	"$$dir/ethanalyze" -verify "$$dir/ds"; \
	"$$dir/ethanalyze" -in "$$dir/ds" > "$$dir/out.txt"; \
	for n in 1 2 3 4 5 6 7; do \
		grep -q "^Figure $$n " "$$dir/out.txt" || { cat "$$dir/out.txt"; echo "dataset-smoke: Figure $$n missing"; exit 1; }; \
	done; \
	echo "dataset-smoke: Figures 1-7 printed"

# Observability gate: the tracing-on-vs-off golden invariance harness
# (byte-identical artifacts and equal Merkle roots with the tracer
# attached), the obs instrument/tracer suites, and the server
# metrics/SSE/pprof handler tests — concurrency-heavy parts under the
# race detector.
test-obs:
	$(GO) test -run 'TestGoldenTracingInvariance|Telemetry' -v ./internal/experiments
	$(GO) test -race -v ./internal/obs/
	$(GO) test -race -run 'Metrics|SSE|Healthz|PProf|Profile|Telemetry|RetryAfter|Backpressure' -v ./internal/server/
	$(GO) test -run 'Telemetry|Trace' -v ./cmd/ethrepro/ ./cmd/ethanalyze/

# Scale gate for the struct-of-arrays node core. Short tier: the
# 10k-node bytes-per-node heap ceiling and the 10k campaign's garbage
# ceilings (what NewCampaign allocates against what it keeps,
# Network.Reserve included, and what Campaign.Run allocates against
# what it adds to the live heap). Full tier: the 100k-node
# scenario at its full size, byte-identical on the serial loop at
# -parallel 1 vs 8 and on the conductor at 1 and 6 workers, with the
# conductor runs' exact event, window, stall and merge counts pinned
# (opt-in via STRESS100K, which this target sets). The tier's
# events/sec and bytes/node are columns of the telemetry.json that
# `ethrepro -scenario examples/scenarios/stress-100k.json -scale medium
# -out DIR` seals.
test-stress:
	$(GO) test -run TestBytesPerNodeCeiling -v ./internal/p2p/
	$(GO) test -run 'TestOverlayBuildGarbage|TestOverlayRunGarbage' -v ./internal/core/
	STRESS100K=1 $(GO) test -run 'TestGoldenStress100kParallelInvariance' -v -timeout 90m ./internal/experiments

# Sharded-execution gate. The conductor's window-loop invariants (lane
# panic containment included), its randomized differential test
# against the serial loop across worker counts and that test's fuzz
# corpus, the warm barrier's hygiene (no goroutine left behind,
# lowest-index panics, no spinning beyond GOMAXPROCS), the engine
# queue's differential test against the reference heap, the RNG fast
# path's draw-for-draw test against math/rand/v2, the transport's
# conductor half of the scheduler table (flight slab reuse, observer
# views, parent interning at injection, conservation, counter fold,
# merge time discipline, the pinned tx flood, relay conformance), the
# campaign-level shard-count and lookahead-bound invariance suites,
# the measurement fold's raw-log-vs-streaming table on the conductor
# and the CLI's -shards scoping test run under the race detector — they
# drive the cross-shard merge, the phase barriers and the lane-local
# pools with real concurrency; the serial-loop halves run on one
# goroutine and stay in the plain tiers — then the golden matrix runs
# its exhaustive sweep (SHARDGOLDEN=full: every builtin spec and
# shipped scenario, shards {0,1,2,6} × -parallel {1,8} byte-identical
# run directories; the plain `go test` tiers check the matrix's corners
# instead, to stay inside the package timeout). The full-size 100k
# conductor golden lives in test-stress (STRESS100K).
test-shard:
	$(GO) test -race -run 'TestConductor|FuzzConductorOrder|TestEachOutsideRun|TestCrewSpins|TestEngineMatchesReferenceOrder|TestRNGFastPathMatchesRand' -v ./internal/sim/
	$(GO) test -race -run '(TestMessagePoolReuse|TestFlightViewMatchesMessage|TestTxFloodPinned|TestParentInternedAtInjection|TestTransportConservation|TestFoldLanes|TestMergeCross)/region-lanes' -v ./internal/p2p/
	$(GO) test -race -run 'TestShardedAllocationCeiling' -v ./internal/p2p/
	$(GO) test -race -run 'TestProtocolConformance//region-lanes' -v ./internal/p2p/relay/
	$(GO) test -race -run '(TestSharded|TestStreamingMatchesRawLog)//shards=2' -v ./internal/core/
	$(GO) test -race -run 'TestShardsFlag' -v ./cmd/ethrepro/
	SHARDGOLDEN=full $(GO) test -run 'TestGolden(Shard)?(BuiltinSpecs|ScenarioArtifacts|RelaySpecs)(Parallel)?Invariance' -v -timeout 90m ./internal/experiments

# Fuzz lane: run every fuzz target for a bounded burst on top of the
# committed seed corpora (which already execute as regular tests).
# FuzzEngineOrder and FuzzAdjacencyChurn cap minimization at 2 s per
# input: minimizing their long op scripts otherwise eats the burst.
fuzz:
	$(GO) test -fuzz FuzzEngineOrder -fuzztime 30s -fuzzminimizetime 2s ./internal/sim/
	$(GO) test -fuzz FuzzRNGFastPath -fuzztime 15s ./internal/sim/
	$(GO) test -fuzz FuzzConductorOrder -fuzztime 30s ./internal/sim/
	$(GO) test -fuzz FuzzAdjacencyChurn -fuzztime 30s -fuzzminimizetime 2s ./internal/p2p/
	$(GO) test -fuzz FuzzScenarioParse -fuzztime 30s ./internal/scenario/
	$(GO) test -fuzz FuzzSweepExpand -fuzztime 30s ./internal/scenario/
	$(GO) test -fuzz FuzzSelectUncles -fuzztime 30s ./internal/chain/
	$(GO) test -fuzz FuzzSettledMainChain -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzChainFold -fuzztime 30s ./internal/analysis/
	$(GO) test -fuzz FuzzBuildIndex -fuzztime 30s ./internal/analysis/
	$(GO) test -fuzz FuzzHeaderEncoding -fuzztime 15s ./internal/types/
	$(GO) test -fuzz FuzzSampleFloor -fuzztime 15s ./internal/geo/

# The fuzz targets CI runs past their seed corpora: the settled
# chain-only path against the whole tree (main chain and analysis
# fold), the JSONL index build (the replay through measure.Fold)
# against the log scan it replaced, and the adjacency arena — span
# relocation and in-place compaction under churn — against its
# ordered-list reference model.
# FuzzAdjacencyChurn caps minimization at 2 s per input: minimizing its
# long churn scripts otherwise eats the whole burst.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzChainFold -fuzztime 20s ./internal/analysis/
	$(GO) test -run '^$$' -fuzz FuzzBuildIndex -fuzztime 20s ./internal/analysis/
	$(GO) test -run '^$$' -fuzz FuzzSettledMainChain -fuzztime 20s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzAdjacencyChurn -fuzztime 20s -fuzzminimizetime 2s ./internal/p2p/

# The whole short tier under the race detector. internal/experiments
# alone needs 530-890 s here on a 2-vCPU box, past go test's default
# 10-minute package timeout, so the target carries its own.
race:
	$(GO) test -race -short -timeout 60m ./...

# profile / profile-shard / profile-chain / profile-tx / profile-mem are
# tools, not gates: nothing compares their output. The allocation and
# heap gates are the tier-1 Test...Ceiling tests.
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
	$(GO) test -run '^$$' -bench 'BenchmarkOverlay10k$$' -benchtime 3x -cpuprofile "$$dir/cpu.prof" -o "$$dir/core.test" ./internal/core; \
	$(GO) tool pprof -top -nodecount=25 "$$dir/core.test" "$$dir/cpu.prof"

# Where the sharded overlay run spends its time: the same campaign on
# the conductor at two workers (BenchmarkOverlay10kSharded, the bench
# harness's overlay-10k-sharded configuration; three runs, build off the
# clock) under the CPU profiler, then the top 25 functions — window
# loop, warm barrier, per-destination merge and ordered tie band
# included. docs/PERFORMANCE.md ("Sharded execution") keeps the tops
# this printed before and after the barrier was rebuilt.
profile-shard:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -run '^$$' -bench BenchmarkOverlay10kSharded -benchtime 3x -cpuprofile "$$dir/cpu.prof" -o "$$dir/core.test" ./internal/core; \
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

# Where a transaction workload spends its time: the `commit` spec's
# campaign (BenchmarkCommit: 100 nodes, 150 blocks, 600 senders; three
# runs, build off the clock) under the CPU profiler, then the top 25.
# docs/PERFORMANCE.md ("The transaction") keeps the tops this printed
# before and after the tx path and the sampler were rebuilt;
# the stage benchmarks are
# `go test -run '^$' -bench 'TxDeliverRedundant|TxFanout' -benchmem ./internal/p2p/`.
profile-tx:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -run '^$$' -bench BenchmarkCommit -benchtime 3x -cpuprofile "$$dir/cpu.prof" -o "$$dir/core.test" ./internal/core; \
	$(GO) tool pprof -top -nodecount=25 "$$dir/core.test" "$$dir/cpu.prof"

# What each paper-small spec costs in memory: one `ethrepro -only <id>
# -scale small -seed 7` process per spec of the bench harness's
# paper-small workload (the list is paperSmallSpecs in
# bench/workloads.go; its bench-owned compact spec is not a registry
# spec and is left out), printing the peak resident set each process's
# telemetry.json recorded (obs.ProcessStats.PeakRSSMB, getrusage
# ru_maxrss; 0 off Linux). The chain:medium and S2:medium rows run
# chain (201,086 blocks) and S2 (1,000,000 blocks), the probes of the
# settled path's flat memory; the last two rows run network at -scale
# stress and -scale stress100k, the 10k- and 100k-node overlays whose
# build (hub attachment, adjacency arena) sets their peak.
# docs/PERFORMANCE.md ("Memory: what a chain-only run holds") keeps
# the table this printed.
profile-mem:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/ethrepro" ./cmd/ethrepro; \
	printf '%-14s %12s\n' spec 'peak RSS MB'; \
	for run in T1:small network:small T2:small commit:small chain:small L1:small W1:small \
		C1:small INC:small A1:small A2:small D1:small D2:small D3:small chain:medium S2:medium \
		network:stress network:stress100k; do \
		id=$${run%%:*}; scale=$${run#*:}; \
		"$$dir/ethrepro" -only $$id -scale $$scale -seed 7 -out "$$dir/$$id" >/dev/null 2>&1 || \
			{ echo "profile-mem: $$id failed"; exit 1; }; \
		rss=$$(sed -n 's/.*"peak_rss_mb": *\([0-9.]*\).*/\1/p' "$$dir/$$id/telemetry.json"); \
		label=$$id; [ $$scale = small ] || label="$$id $$scale"; \
		printf '%-14s %12.1f\n' "$$label" "$$rss"; \
	done

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

# Which functions the program's own traffic never enters. Builds the
# four CLIs and the examples with coverage over every package, runs the
# traffic set — every registry spec at -scale small, every shipped
# scenario but the two big stress files at -scale small -shards 2 into
# run directories, ethmeasure into ethanalyze -verify / -in / -run, one
# traced ethrepro run, ethrepro -list, every example at -short and one
# ethserve campaign over localhost with a /metrics scrape — and prints
# every non-test function the set left at 0%, then a count per package.
# A tool for deciding what to delete, not a gate (~2 min on 2 vCPUs).
reach:
	@set -e; dir=$$(mktemp -d); pid=; \
	trap '[ -z "$$pid" ] || kill $$pid 2>/dev/null; rm -rf "$$dir"' EXIT; \
	b="$$dir/bin"; mkdir -p "$$b" "$$dir/cov"; \
	$(GO) build -cover -coverpkg=./... -o "$$b/" ./cmd/... ./examples/...; \
	export GOCOVERDIR="$$dir/cov"; \
	"$$b/ethrepro" -scale small -out "$$dir/run" >/dev/null; \
	for f in examples/scenarios/*.json; do \
		case "$$f" in *stress-10k.json|*stress-100k.json) continue;; esac; \
		"$$b/ethrepro" -scenario "$$f" -scale small -shards 2 -out "$$dir/sc/$$(basename "$$f")" >/dev/null; \
	done; \
	"$$b/ethmeasure" -nodes 120 -blocks 40 -txrate 2 -out "$$dir/ds" >/dev/null 2>&1; \
	"$$b/ethanalyze" -verify "$$dir/ds" >/dev/null; \
	"$$b/ethanalyze" -in "$$dir/ds" >/dev/null; \
	for d in "$$dir/run" "$$dir"/sc/*; do "$$b/ethanalyze" -run "$$d" >/dev/null; done; \
	"$$b/ethrepro" -only network,D1 -trace "$$dir/trace.json" >/dev/null 2>&1; \
	"$$b/ethrepro" -list >/dev/null; \
	for d in examples/*/; do \
		[ -f "$$d/main.go" ] || continue; "$$b/$$(basename "$$d")" -short >/dev/null; \
	done; \
	"$$b/ethserve" -addr 127.0.0.1:0 -store "$$dir/store" 2>"$$dir/serve.log" & pid=$$!; \
	for i in $$(seq 50); do grep -q 'listening on' "$$dir/serve.log" && break; sleep 0.2; done; \
	addr=$$(sed -n 's/.*listening on \([^,]*\),.*/\1/p' "$$dir/serve.log"); \
	id=$$(curl -sf "http://$$addr/campaigns" -d '{"specs":["T1","chain"],"scale":"small"}' | \
		sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'); \
	for i in $$(seq 300); do \
		curl -sf "http://$$addr/campaigns/$$id" | grep -q '"state": *"done"' && break; sleep 0.2; \
	done; \
	curl -sf "http://$$addr/campaigns/$$id/artifacts/outcomes.json" >/dev/null; \
	curl -sf "http://$$addr/metrics" >/dev/null; \
	kill -INT $$pid; wait $$pid; pid=; \
	$(GO) tool covdata func -i "$$dir/cov" | awk '$$NF == "0.0%" { print $$1, $$2 }' | sort > "$$dir/zero"; \
	cat "$$dir/zero"; echo; \
	awk '{ pkg = $$1; sub(/\/[^\/]*$$/, "", pkg); n[pkg]++ } \
		END { for (p in n) printf "%6d  %s\n", n[p], p }' "$$dir/zero" | sort -k2; \
	printf '%6d  total at 0%%\n' $$(wc -l < "$$dir/zero")

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
