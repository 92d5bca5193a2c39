GO ?= go

# BASE is the commit bench-compare measures the working tree against.
BASE ?= HEAD

.PHONY: all build fmt-check vet test race bench-test ci bench-compare fuzz profile reach loc

all: build

build:
	$(GO) build ./...

# fmt-check fails (and lists the offenders) when any tracked Go file is
# not gofmt-clean, so formatting drift cannot land through CI.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs every test under the race detector, each layer's named
# contracts included (the FTL's one lock under concurrent tenants, trace
# replay, fault recovery, the fleet). To rerun one layer alone, select it
# by name, e.g.
# go test -race -count 1 -v -run 'Fault|Breaker|Retry' ./internal/...
race:
	$(GO) test -race ./...

# bench-test runs the repository benchmark harness's own tests
# (bench/, a separate Go module that `go test ./...` does not reach):
# BENCHMARK.json matching the harness's tables, and the output checks.
# The environment is bench/run.sh's: no module proxy, the local toolchain.
bench-test:
	cd bench && GOFLAGS= GOPROXY=off GOTOOLCHAIN=local $(GO) test ./...

# ci is the gate future PRs must keep green: gofmt-clean tree, clean
# build, clean vet, the benchmark harness's tests, and the full test
# suite (including the 32-tenant offload stress, the FTL's concurrent
# tenant tests with their invariant checks, the Trivium differential
# suite and the cipher and MEE speedup floors) under the race detector.
ci: fmt-check build vet bench-test race

# profile grounds hot-path claims in data. It records a CPU pprof of one
# full suite pass (traces pre-warmed, so the profile is replay work,
# ~5-30 s depending on scale) and one of the functional offload path
# (BenchmarkOffloadRoundTrip on Open's default device: TEE create, reads,
# an adopting write, teardown), and prints each one's top-10 functions.
# Scratch outputs live under the gitignored out/ so profiling never
# litters the repo root. Inspect interactively with:
# go tool pprof out/cpu.pprof (or out/offload.pprof)
profile:
	@mkdir -p out
	$(GO) run ./cmd/iceclave-bench -cpuprofile out/cpu.pprof
	$(GO) tool pprof -top -nodecount=10 out/cpu.pprof
	$(GO) test -run '^$$' -bench 'OffloadRoundTrip/default-geometry' -benchtime 3s \
		-cpuprofile out/offload.pprof -o out/iceclave.test .
	$(GO) tool pprof -top -nodecount=10 out/offload.pprof

# bench-compare compares the working tree with commit BASE on this host,
# through the repository benchmark (bench/README.md). It unpacks BASE
# into out/base, runs each checkout's bench/run.sh three times untraced
# and once traced, and asks -agree of each pair. The traced pair gates:
# every simulated metric must be exactly equal, or the target fails. The
# untraced pair (every end-to-end median within its bound) is advisory:
# its verdict is printed, but each side's runs come minutes apart, so
# host drift alone can make it disagree on an unchanged tree. Both sides
# run back to back on the same machine, so no record from other hardware
# enters the comparison. With the default 10 s runs it takes about 11
# minutes. run.sh changes into its own checkout, so every -out path is
# absolute.
bench-compare:
	rm -rf out/base && mkdir -p out/base
	git archive $(BASE) | tar -x -C out/base
	bash out/base/bench/run.sh -runs 3 -out $(CURDIR)/out/bench-base.json
	bash bench/run.sh -runs 3 -out $(CURDIR)/out/bench-new.json
	bash out/base/bench/run.sh -runs 1 -trace 1 -out $(CURDIR)/out/bench-base-traced.json
	bash bench/run.sh -runs 1 -trace 1 -out $(CURDIR)/out/bench-new-traced.json
	@echo "untraced pair (advisory):"
	-@bash bench/run.sh -agree $(CURDIR)/out/bench-base.json $(CURDIR)/out/bench-new.json
	@echo "traced pair:"
	@bash bench/run.sh -agree $(CURDIR)/out/bench-base-traced.json $(CURDIR)/out/bench-new-traced.json

# fuzz gives each cipher/MEE/cache/trace/fault fuzz target a short budget
# beyond the committed regression corpus in testdata/fuzz. The Trivium
# targets differentially check the word-parallel engine against the
# bit-serial reference on every input; the traffic target does the same
# for the batched traffic model against its per-line TrafficReference
# oracle; the cache target checks cache.Cache against a test-only
# reference (per-set recency lists and a dirty map) that shares none of
# its code, since both traffic models sit on cache.Cache; the trace
# target pins that arbitrary CSV input parses to a typed error or a
# well-formed schedule, never a panic or a silent row drop; the fault
# target derives arbitrary plans and requires the decision stream to be
# repeatable, probability-bounded, and panic-free at every site/ordinal.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzKeystreamRoundTrip -fuzztime=20s ./internal/trivium
	$(GO) test -run='^$$' -fuzz=FuzzEnginePageRoundTrip -fuzztime=20s ./internal/trivium
	$(GO) test -run='^$$' -fuzz=FuzzEngineWriteReadMAC -fuzztime=20s ./internal/mee
	$(GO) test -run='^$$' -fuzz=FuzzEngineCounterReplay -fuzztime=20s ./internal/mee
	$(GO) test -run='^$$' -fuzz=FuzzTrafficBatchedVsReference -fuzztime=20s ./internal/mee
	$(GO) test -run='^$$' -fuzz=FuzzCacheVsReference -fuzztime=20s ./internal/cache
	$(GO) test -run='^$$' -fuzz=FuzzTraceReader -fuzztime=20s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzFaultPlan -fuzztime=20s ./internal/fault

# reach lists the functions no binary links, i.e. the code only tests
# reach (an internal package cannot be imported from outside the module).
# It builds every main package and the benchmark harness with inlining
# off into out/reach/, dumps each binary's symbols with go tool nm, and
# has tools/reach.go (standard library only, //go:build ignore) diff them
# against a go/ast listing of the module's non-test functions outside
# bench/. It prints file:line, name and size of each unreached function,
# then the totals. Not part of ci: it is a survey, not a gate.
REACH_MAINS := cmd/iceclave-bench cmd/iceclave-sim cmd/iceclave-trace \
	examples/attacks examples/multitenant examples/quickstart examples/tpch
reach:
	@mkdir -p out/reach
	@for p in $(REACH_MAINS); do \
		$(GO) build -gcflags=all=-l -o out/reach/$$(basename $$p) ./$$p && \
		$(GO) tool nm out/reach/$$(basename $$p) > out/reach/$$(basename $$p).nm || exit 1; \
	done
	@cd bench && GOFLAGS= GOPROXY=off GOTOOLCHAIN=local $(GO) build -gcflags=all=-l -o ../out/reach/bench .
	@$(GO) tool nm out/reach/bench > out/reach/bench.nm
	@$(GO) run tools/reach.go $(foreach p,$(REACH_MAINS),$(p)=out/reach/$(notdir $(p)).nm) bench=out/reach/bench.nm

# loc prints the Go line counts a change reports next to its perf
# numbers: non-test lines outside bench/ and tools/, non-test lines in
# bench/, and test lines outside bench/. It counts tracked files (git
# ls-files), so git add new files first. Not part of ci: it is a survey,
# not a gate.
loc:
	@echo "$$(git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | grep -v '^tools/' | xargs cat | wc -l) non-test Go lines outside bench/ and tools/"
	@echo "$$(git ls-files 'bench/*.go' | grep -v _test.go | xargs cat | wc -l) non-test Go lines in bench/"
	@echo "$$(git ls-files '*_test.go' | grep -v '^bench/' | xargs cat | wc -l) test Go lines outside bench/"
