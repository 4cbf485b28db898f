# Development gates for the gcsafety reproduction.
#
#   make check        the full pre-merge gate: gofmt, vet, the run-path
#                     and cache-path lints, build, the short test suite under the race
#                     detector, the full test suite, the benchmark module's
#                     tests, bench-smoke, a 10-second native-fuzzing smoke
#                     run per fuzz target (internal/fuzz's and the server's
#                     FuzzRequestBody), and the pipeline-, elision-,
#                     serve-, chaos-, heapdump- and cluster-smoke gates
#   make test         tier-1: exactly what CI runs (see ROADMAP.md)
#   make benchmark-test  the benchmark module's own tests (cd benchmark &&
#                     go test ./...), which gate testdata/tables.golden;
#                     the root module's go test ./... does not reach them
#   make fuzz-smoke   just the fuzzing smoke runs
#   make fuzz         a longer local fuzzing session (5 minutes per target)
#   make serve-smoke  build the real gcsafed binary, start it on a random
#                     port, hit every endpoint, assert /metrics advanced
#   make chaos-smoke  the fault-injection gate: the daemon's -chaos mode
#                     plus the kill -9 warm-cache-recovery test
#   make chaos        a heavier local chaos run (more requests, live daemon)
#   make serve        run the daemon locally on the default port
#   make bench        run every package's benchmarks (the cold ones that
#                     each isolate one layer) and print go test -bench text
#   make bench-smoke  every benchmark once: proves the benchmarks run
#   make ab REV=<rev> [WORKLOADS="paper-tables daemon-cold"]
#                     interleaved A/B of the repo benchmark, REV against the
#                     working tree: 10 pairs per workload on fresh seeds,
#                     then benchmark/run.sh -compare; exits 1 on a worse row
#   make pipeline-smoke  build one workload through the stage graph twice
#                     and assert the second build is 100% stage-cache hits
#   make elision-smoke  the liveness-elision gate: warm elided rebuilds are
#                     100% stage-cache hits (liveness stage included) and
#                     the differential matrix classifies every elided cell
#                     exactly like its unelided twin
#   make heapdump-smoke  profile the leak workload through both surfaces —
#                     the real ccrun binary with -heap-dump and the daemon's
#                     /v1/heapdump — and assert the two snapshots agree on
#                     live-object count and live bytes
#   make run-path-lint  fail when non-test code outside internal/interp,
#                     internal/pipeline, cmd/peephole and benchmark/ calls
#                     the interpreter directly instead of Runner.Execute
#   make cache-path-lint  fail when non-test code under internal/server
#                     calls the artifact cache's GetOrCompute instead of
#                     serving through the pipeline's ladder
#   make cluster-smoke  the distributed availability gate: 3 peered gcsafed
#                     nodes under loadgen's mixed load with chaos fault
#                     rotation, one node killed -9 mid-run; requires ≥99%
#                     of logical requests to succeed and cluster-wide
#                     computes within 1.2x the distinct-artifact baseline

GO ?= go
FUZZPKG := ./internal/fuzz
FUZZTARGETS := FuzzDifferential FuzzParserRoundtrip FuzzFaultInjection FuzzTemporalDifferential

.PHONY: check fmt-check vet build test benchmark-test race fuzz-smoke fuzz serve-smoke chaos-smoke chaos serve bench bench-smoke ab pipeline-smoke elision-smoke heapdump-smoke cluster-smoke run-path-lint cache-path-lint

check: fmt-check vet run-path-lint cache-path-lint build race test benchmark-test bench-smoke fuzz-smoke pipeline-smoke elision-smoke serve-smoke chaos-smoke heapdump-smoke cluster-smoke

fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# One run path: every run in the program goes through the pipeline's
# Execute stage (Runner.Execute), which keys, caches and prices it. Only
# the interpreter itself, the pipeline, cmd/peephole's before/after
# comparison and the benchmark module call it directly.
run-path-lint:
	@hits=$$(git grep --untracked -n -E 'interp\.Run(Context)?\(' -- '*.go' ':!*_test.go' \
		':!internal/interp/' ':!internal/pipeline/' ':!cmd/peephole/' ':!benchmark/'); \
	if [ -n "$$hits" ]; then \
		echo "run-path-lint: run through pipeline.Runner.Execute, not the interpreter:"; \
		echo "$$hits"; exit 1; \
	fi

# One cache path: gcsafed serves stage artifacts through the pipeline's
# ladder (Runner.Report, Program, Run and Serve), which holds every
# caching decision, so the server itself never calls GetOrCompute.
cache-path-lint:
	@hits=$$(git grep --untracked -n 'GetOrCompute(' -- 'internal/server/*.go' ':!*_test.go'); \
	if [ -n "$$hits" ]; then \
		echo "cache-path-lint: serve through the pipeline's ladder, not the artifact cache:"; \
		echo "$$hits"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is its own Go module (it imports the repo through a replace
# directive), so the root test run skips it; TestTablesGolden there pins
# every paper table byte for byte.
benchmark-test:
	cd benchmark && $(GO) test ./...

# The race run uses -short: the differential matrix's 2000-program run is
# covered by `test` above, and under the race detector a 100-program slice
# exercises the same code at a tolerable cost.
race:
	$(GO) test -race -short ./...

# FuzzRequestBody posts every input to each /v1 endpoint of an in-process
# gcsafed. Its seeds are bodies of up to 50 KB, and minimizing one such
# input that finds new coverage would take the whole smoke run, so its
# minimization stops after 200 executions.
SERVERFUZZ := -run '^$$' -fuzz=FuzzRequestBody -fuzzminimizetime=200x ./internal/server

fuzz-smoke:
	@for target in $(FUZZTARGETS); do \
		$(GO) test -run '^$$' -fuzz=$$target -fuzztime=10s $(FUZZPKG) || exit 1; \
	done
	$(GO) test $(SERVERFUZZ) -fuzztime=10s

fuzz:
	@for target in $(FUZZTARGETS); do \
		$(GO) test -run '^$$' -fuzz=$$target -fuzztime=5m $(FUZZPKG) || exit 1; \
	done
	$(GO) test $(SERVERFUZZ) -fuzztime=5m

# The end-to-end daemon gate: TestServeSmoke builds the real binary, starts
# it on a random port, exercises every endpoint and asserts the /metrics
# counters advanced. Run under the race detector, as check requires.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke' ./cmd/gcsafed

# The fault-injection gate: replay the request mix against a real daemon
# under injected errors/panics/latency (TestChaosSmoke wraps the binary's
# -chaos mode) and prove kill -9 cannot lose or corrupt the artifact
# cache (TestKillRestartWarmCache).
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSmoke|TestKillRestartWarmCache' ./cmd/gcsafed

chaos:
	$(GO) run ./cmd/gcsafed -chaos -chaos-requests 512

# Host time is compared only within one session: make ab runs the repo
# benchmark interleaved against a revision (scripts/ab.sh). The go test
# benchmarks are cold and each isolates one layer; bench prints their text,
# and bench-smoke runs each once.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 100ms -count 5 -timeout 30m ./...

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

ab:
	@if [ -z "$(REV)" ]; then echo 'make ab: set REV=<rev>'; exit 2; fi
	bash scripts/ab.sh $(REV) $(WORKLOADS)

# The stage-graph gate: a warm rebuild of a workload must be served
# entirely from the per-stage artifact cache (TestPipelineSmokeWarmBuild
# asserts 7/7 cache hits on the second build), under the race detector.
pipeline-smoke:
	$(GO) test -race -count=1 -run 'TestPipelineSmokeWarmBuild' ./internal/pipeline

# The elision gate: with the liveness analysis on, a warm rebuild must be
# 100% stage-cache hits (7 stages including liveness), and a differential
# matrix over the seed corpus must classify every elided cell exactly
# like its unelided twin.
elision-smoke:
	$(GO) test -race -count=1 -run 'TestElisionSmoke' .

# The heap-introspection agreement gate: TestHeapdumpSmoke runs the leak
# workload through ccrun -heap-dump and through POST /v1/heapdump and
# requires identical live-object counts and live bytes.
heapdump-smoke:
	$(GO) test -race -count=1 -run 'TestHeapdumpSmoke' ./cmd/gcsafed

# The distributed gate: TestClusterSmoke builds gcsafed and loadgen, peers
# three real daemons, drives a mixed workload with chaos fault rotation,
# kills one node with SIGKILL mid-run, rebalances the survivors, and
# asserts the availability (≥99% ok) and dedup (≤1.2x baseline computes)
# contracts.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestClusterSmoke' ./cmd/gcsafed

serve:
	$(GO) run ./cmd/gcsafed
