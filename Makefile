# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench perf sweepbench allocbench telemetrybench pausebench zonebench tracebench parzonebench assertbench slobench difftest fuzz figures casestudies verify

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench . -benchmem ./...

# The repository benchmark (BENCHMARK.json): builds perfbench from this
# checkout and runs the jbb-leak and db-owned workloads, printing each
# workload's report and its final JSON line.
perf:
	bash perfbench/run.sh --workload jbb-leak
	bash perfbench/run.sh --workload db-owned

# Sweep-mode microbenchmarks: eager vs lazy sweep, and the allocator with
# and without demand sweeping (see results/lazy_sweep.txt). The sweep
# benchmarks refill the heap off-timer before every iteration, so they run
# a fixed 100 iterations: an auto-scaled b.N for the microsecond-scale
# LazyArm would spend hours refilling.
sweepbench:
	go test -run '^$$' -bench 'BenchmarkSweep' -benchtime 100x -benchmem ./internal/vmheap
	go test -run '^$$' -bench 'BenchmarkAllocEager|BenchmarkAllocLazy' -benchmem ./internal/vmheap

# Allocation fast-path microbenchmarks: the direct free-list allocator vs
# bump-pointer buffers across object sizes and buffer sizes, plus the
# payload-zeroing idiom comparison (see results/alloc_fastpath.txt).
allocbench:
	go test -run '^$$' -bench 'BenchmarkAllocDirect|BenchmarkAllocBuffered|BenchmarkZeroing' -benchmem ./internal/vmheap

# Telemetry overhead: pseudojbb with telemetry off, ring-only, and
# streaming NDJSON to a discarded sink (see results/telemetry.txt).
telemetrybench:
	go test -run '^$$' -bench BenchmarkTelemetry -benchmem .

# Concurrent pacing report: the stop-the-world collector vs the background
# pacer at several trigger/slack settings, comparing mutator-visible latency
# tails and throughput (see results/concurrent_pacing.txt).
pausebench:
	go run ./cmd/gcbench -fig pause -concurrent | tee results/concurrent_pacing.txt

# Zone pause-isolation report: per-allocation mutator latency and the
# telemetry pause histogram while a driver collects continuously — the whole
# heap in the baseline, one zone at a time in the sharded variants. Shows
# collecting one zone does not pause allocation in the others (see
# results/zones.txt).
zonebench:
	go run ./cmd/gcbench -fig zones | tee results/zones.txt

# Trace-throughput baseline: marked words/sec on the pseudojbb shape under
# serial whole-heap and concurrent-zone tracing — the ROADMAP item 4
# compaction work measures against this (see results/trace_throughput.txt).
# The first line records the machine the numbers came from.
tracebench:
	{ echo "# nproc=$$(nproc) GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)} cpu=\"$$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')\" $$(go version | cut -d' ' -f3-)"; \
	  go test -run '^$$' -bench BenchmarkTraceThroughput -benchmem ./internal/harness; } | tee results/trace_throughput.txt

# Parallel zone rotation: aggregate GC throughput (marked words/sec) and
# mutator throughput under the serialized rotation vs concurrent rotations
# with 1, 2, and 4 zones in flight (see results/parallel_zones.txt).
parzonebench:
	go run ./cmd/gcbench -fig zones -zonegcworkers 4 | tee results/parallel_zones.txt

# Assertion-overhead report: per-assertion-kind collection throughput with
# the engine unarmed vs armed (dead, region, unshared, owned), plus the
# staleness profiler's Touch cost and Advance pause, headed by a host line
# (see results/assert_overhead.txt).
assertbench:
	{ echo "# nproc=$$(nproc) GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)} cpu=\"$$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')\" $$(go version | cut -d' ' -f3-) commit=$$(git describe --always --dirty 2>/dev/null)"; \
	  go test -run '^$$' -bench BenchmarkAssertTrace -benchtime 3000x -benchmem ./internal/harness; \
	  go test -run '^$$' -bench BenchmarkStaleness -benchmem ./internal/harness; } | tee results/assert_overhead.txt

# Serving SLO sweep: the minidb server under open-loop load over loopback
# HTTP, swept across request rates and collector configs, with per-cell
# p50/p95/p99 request latency from the offline summary of each cell's
# NDJSON stream — the same file `gcmon -follow` reads live. The heap is
# sized so collections actually fire under the load and land in the tails.
# The gate requires aggregate p99 at the -slo-rps rate within the -slo-p99
# budget (see results/serving_slo.txt). The zoned config needs a heap at
# least 4x this (the database initializes into one zone):
#   go run ./cmd/minidbd -selfdrive -gc zones -heapwords 262144 ...
slobench:
	go run ./cmd/minidbd -selfdrive -gc stw,concurrent -rates 500,1000 \
		-duration 4s -heapwords 65536 -entries 1000 \
		-slo-rps 500 -slo-p99 50ms | tee results/serving_slo.txt

# Differential tests: stop-the-world vs incremental cycles (plus the
# shadow-model oracle), eager vs lazy sweep modes under both collectors,
# direct vs buffered allocation across every collector mode, telemetry on vs
# off (recording must be pure observation — byte-identical heaps),
# stop-the-world vs background-pacer concurrent collection (same final
# marked set and assertion verdicts), whole-heap vs per-zone collection
# (verdicts, live sets, and remembered-set precision), and the staleness
# tracker vs its map reference; TestSideTabVerdicts checks the dense side
# tables' per-cycle verdicts.
difftest:
	go test -race -run 'TestIncrementalDifferential|TestOracle' -v ./internal/trace
	go test -race -run 'TestSweepModesDifferential|TestLazySweep|TestAllocBuffer|TestTelemetry' -v ./internal/core
	go test -race -run 'TestConcurrentDifferential' -v ./internal/core
	go test -race -run 'TestZoneDifferential|TestZoneRemsetPrecision' -v ./internal/core
	go test -race -run 'TestParallelZoneDifferential' -v ./internal/core
	go test -race -run 'TestSideTabVerdicts' -v ./internal/core
	go test -race -run 'TestStalenessSideTabDifferential' -v ./internal/staleness

# Short coverage-guided fuzz runs: the stop-the-world/incremental
# equivalence, the eager/lazy sweep equivalence, the direct/buffered
# allocation equivalence, the stop-the-world/pacer equivalence, the zone
# remembered-set safety bound, and the side tables against map models (go
# test takes one -fuzz pattern per invocation, so the targets run
# sequentially).
fuzz:
	go test -run '^$$' -fuzz FuzzIncrementalBarrier -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzLazySweep -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzAllocBuffer -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzConcurrentPacer -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzZoneRemset -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzSideTab -fuzztime 30s ./internal/sidetab

# Regenerate the paper's figures (text tables on stdout, CSV alongside).
figures:
	go run ./cmd/gcbench -fig all -csv figures.csv

# Run the four qualitative case studies of Section 3.2.
casestudies:
	go run ./cmd/leakcheck jbb
	go run ./cmd/leakcheck db
	go run ./cmd/leakcheck lusearch
	go run ./cmd/leakcheck swapleak

verify: build test race
