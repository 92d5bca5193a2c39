GO ?= go

# bench-compare runs this many benchmark repetitions (benchstat wants >= 5
# for significance when comparing against a saved baseline).
BENCH_COUNT ?= 1

.PHONY: all build fmt-check vet test race race-shard trace-tests race-fault race-fleet bench-test ci bench bench-compare micro fuzz profile

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

race:
	$(GO) test -race ./...

# race-shard runs the channel-sharding contracts explicitly (and
# verbosely) under the race detector: the device- and FTL-level
# cross-channel no-shared-lock pins, the GC-vs-write-storm isolation
# stress, and the lock-free stats snapshot race. These are the tests that
# protect the per-channel flash.Device sharding; `race` runs them too,
# but a sharding regression should fail loudly and by name.
race-shard:
	$(GO) test -race -count 1 -v \
		-run 'CrossChannelNoSharedLock|SnapshotRaceWithPrograms|CrossChannelWriteStormIntegrity|GCChannelIsolationUnderWriteStorm|GCOnHostageChannelDoesNotBlockOthers' \
		./internal/flash ./internal/ftl

# trace-tests runs the trace-replay differential layer explicitly (and
# verbosely) under the race detector: the golden-fixture and fuzz-seed
# reader tests, the open-loop playback pins at the sim/sched gates, the
# core zero-schedule bit-compatibility and QueueDelay-from-arrival pins,
# and the suite-level byte-identical rerun check. `race` runs them too,
# but a trace-replay regression should fail loudly and by name.
trace-tests:
	$(GO) test -race -count 1 -v \
		-run 'Trace|Playback|Golden|Malformed|Schedule|EqualArrivals|BurstyFixture' \
		./internal/trace ./internal/sim ./internal/sched ./internal/core ./internal/experiments

# race-fault runs the fault-injection and recovery layer explicitly (and
# verbosely) under the race detector: the deterministic fault-plan
# contracts (same seed => same decisions), the device/FTL/TEE injection
# seams, the circuit breaker's state machine, the core replay's
# retry/backoff and determinism pins (pooled stacks, zero-plan
# bit-identity), the scheduler's drain-timeout
# straggler report, and the public error-taxonomy tests in the root
# package. `race` runs them too, but a recovery regression should fail
# loudly and by name.
race-fault:
	$(GO) test -race -count 1 -v \
		-run 'Fault|Injector|Breaker|Retry|Backoff|DieDeath|DieDead|MACFault|BadBlock|Retire|DrainTimeout|Sentinel|ZeroPlan|OffloadTimeout' \
		./internal/fault ./internal/flash ./internal/ftl ./internal/tee \
		./internal/sim ./internal/sched ./internal/core ./internal/experiments .

# race-fleet runs the rack-scale fleet layer explicitly (and verbosely)
# under the race detector: the rendezvous-placement contracts
# (determinism, weight proportionality, minimal disruption), the health
# monitor's telemetry scoring, the functional failover lifecycle
# (drain, migrate, re-admit, reopen), the migration data-integrity
# property tests (read-back-identical plaintext, tamper => ErrIntegrity
# through the public API), the fleet-replay determinism pins (pooled
# stacks, 1-device degeneracy), and the
# experiments-level byte-identical rerun check. `race` runs them too,
# but a fleet regression should fail loudly and by name.
race-fleet:
	$(GO) test -race -count 1 -v \
		-run 'Place|Placements|ScoreTelemetry|FleetFailover|Migration|FleetReplay|OneDeviceFleet|FleetTiming|FleetReplaySummary' \
		./internal/fleet ./internal/experiments

# bench-test runs the repository benchmark harness's own tests
# (bench/, a separate Go module that `go test ./...` does not reach):
# BENCHMARK.json matching the harness's tables, and the output checks.
# The environment is bench/run.sh's: no module proxy, the local toolchain.
bench-test:
	cd bench && GOFLAGS= GOPROXY=off GOTOOLCHAIN=local $(GO) test ./...

# ci is the gate future PRs must keep green: gofmt-clean tree, clean
# build, clean vet, the named channel-sharding race tests, the
# trace-replay differential layer, the fault-injection recovery layer,
# the rack-scale fleet layer, the benchmark harness's tests, and the full
# test suite (including the 32-tenant offload stress, the FTL
# stripe-contention tests, and the Trivium differential suite) under the
# race detector.
ci: fmt-check build vet race-shard trace-tests race-fault race-fleet bench-test race

# bench regenerates the committed machine-readable performance record:
# serial vs parallel experiment-suite wall time, the scheduler offload
# storm, and the Trivium/FTL microbenchmarks (see cmd/iceclave-bench and
# docs/BENCHMARKS.md for methodology and the 1-CPU caveat).
bench:
	$(GO) run ./cmd/iceclave-bench -bench-json BENCH_results.json -workers 4

# micro runs only the cipher, lock-sharding, die-pipelining,
# admission-queueing, write-storm, mee-traffic, trace-replay,
# fault-replay, fleet-replay, and replay-setup microbenchmarks
# (seconds, not minutes) and prints a human summary.
# The die-pipelining, queueing, trace-replay, fault-replay, and
# fleet-replay numbers are simulated time, so they are deterministic on
# any machine.
micro:
	$(GO) run ./cmd/iceclave-bench -micro

# profile grounds hot-path claims in data: it records a CPU pprof of one
# full serial suite pass (traces pre-warmed, so the profile is replay
# work, ~7-30 s depending on scale) and prints the top-10 functions.
# Scratch outputs live under the gitignored out/ so profiling never
# litters the repo root. Inspect interactively with:
# go tool pprof out/cpu.pprof
profile:
	@mkdir -p out
	$(GO) run ./cmd/iceclave-bench -cpuprofile out/cpu.pprof
	$(GO) tool pprof -top -nodecount=10 out/cpu.pprof

# bench-compare checks the performance claims instead of asserting them:
#   - BenchmarkKeystream (bit-serial oracle vs word64 production engine,
#     same key schedule + 4 KB page unit of work) must show >= 10x.
#   - The -micro die-pipelining section (one channel's program burst on a
#     single die vs striped across its dies, in simulated time) must show
#     >= 2x overlap — failure means multi-die programs have regressed
#     toward the serialized baseline.
#   - The -micro write-storm section (program/invalidate/erase churn on
#     every flash.Device channel, one goroutine per channel vs serial,
#     wall clock, each leg the fastest of 5 interleaved reps) must beat
#     the GOMAXPROCS-aware gate the micro prints:
#     >= 2x with 4+ cores, >= 0.7x on fewer (where parallel hardware is
#     absent and the gate only rejects the collapse that a re-introduced
#     cross-channel shared lock causes). See docs/BENCHMARKS.md.
#   - The -micro mee-traffic section (the same streaming scan through the
#     per-line TrafficReference and the batched TrafficModel) must show
#     >= 3x on the scan AND identical stats — the bulk hot path may be
#     fast only if it changes nothing.
#   - The -micro replay-setup section (the same replay repeated with the
#     core resource pool off and on) must show >= 2x faster setup on the
#     pooled leg AND identical run Results — a recycled, reset stack may
#     be cheap only if it is indistinguishable from a fresh one.
#   - The -micro trace-replay section (the Timing 2 open-loop scenario run
#     cold, memoized, and on a fresh suite) must report identical: true —
#     the trace-mode table must be byte-identical across memoized reruns
#     and schedule re-parses.
#   - The -micro fault-replay section must report zero-fault identical:
#     true — a replay under a fault plan whose rates are all zero must
#     produce Results struct-identical to a replay with no plan at all,
#     so the injection seams cost nothing when they inject nothing.
#   - The -micro fleet-replay section must report identical: true — a
#     1-device fleet replay must produce per-tenant Results
#     struct-identical to the bare SSD — AND the device-death sweep must
#     recover at least the committed tenant floor the micro prints, so a
#     placement, health-scoring, or migration regression that strands
#     tenants fails the gate by name.
# Scratch outputs land under the gitignored out/. With benchstat
# installed and a saved baseline (cp out/bench_new.txt out/bench_old.txt
# before a change), it also prints an old-vs-new statistical comparison.
# See docs/BENCHMARKS.md.
bench-compare:
	@mkdir -p out
	$(GO) test -run '^$$' -bench BenchmarkKeystream -benchmem -count $(BENCH_COUNT) \
		./internal/trivium | tee out/bench_new.txt
	@awk '/BenchmarkKeystream\/bitserial/ {bit+=$$3; nbit++} \
	      /BenchmarkKeystream\/word64/    {word+=$$3; nword++} \
	      END { \
	        if (!nbit || !nword) { print "bench-compare: missing benchmark output"; exit 1 } \
	        ratio = (bit/nbit) / (word/nword); \
	        printf "trivium word64 speedup over bit-serial: %.1fx\n", ratio; \
	        if (ratio < 10) { print "FAIL: speedup below the 10x floor"; exit 1 } \
	      }' out/bench_new.txt
	@$(GO) run ./cmd/iceclave-bench -micro | tee out/micro_new.txt
	@awk -F'[()x]' '/^die pipelining:/ { ratio=$$2 } \
	      END { \
	        if (ratio == "") { print "bench-compare: missing die-pipelining output"; exit 1 } \
	        printf "die-pipelined program overlap: %.2fx\n", ratio; \
	        if (ratio+0 < 2) { print "FAIL: multi-die program throughput regressed toward the serialized baseline"; exit 1 } \
	      }' out/micro_new.txt
	@awk '/^write-storm speedup/ { ratio=$$3; gate=$$5 } \
	      END { \
	        if (ratio == "") { print "bench-compare: missing write-storm output"; exit 1 } \
	        printf "cross-channel write-storm speedup: %.2fx (gate %.2fx)\n", ratio, gate; \
	        if (ratio+0 < gate+0) { print "FAIL: cross-channel write storm below its gate - device channels are contending on a shared lock"; exit 1 } \
	      }' out/micro_new.txt
	@awk '/^mee traffic scan:/ { scan=$$NF } \
	      /^mee traffic gate/ { gate=$$4; id=$$6 } \
	      END { \
	        if (scan == "" || gate == "") { print "bench-compare: missing mee-traffic output"; exit 1 } \
	        printf "mee batched-traffic scan speedup: %.2fx (gate %.2fx, stats identical: %s)\n", scan, gate, id; \
	        if (id != "true") { print "FAIL: batched traffic model diverged from the per-line reference"; exit 1 } \
	        if (scan+0 < gate+0) { print "FAIL: batched memory-traffic scan below its gate - the sequential-run fast path has regressed toward the per-line loop"; exit 1 } \
	      }' out/micro_new.txt
	@awk '/^replay setup gate/ { gate=$$4; sp=$$6; id=$$8 } \
	      END { \
	        if (gate == "") { print "bench-compare: missing replay-setup output"; exit 1 } \
	        printf "pooled replay-setup speedup: %.2fx (gate %.2fx, stats identical: %s)\n", sp, gate, id; \
	        if (id != "true") { print "FAIL: pooled replay stack diverged from fresh allocation"; exit 1 } \
	        if (sp+0 < gate+0) { print "FAIL: pooled replay setup below its gate - the reset path has regressed toward full reconstruction"; exit 1 } \
	      }' out/micro_new.txt
	@awk '/^trace replay identical:/ { id=$$4 } \
	      END { \
	        if (id == "") { print "bench-compare: missing trace-replay output"; exit 1 } \
	        printf "trace-replay suite output identical across reruns: %s\n", id; \
	        if (id != "true") { print "FAIL: trace-mode suite output changed across memoized reruns or schedule re-parses"; exit 1 } \
	      }' out/micro_new.txt
	@awk '/^fault replay zero-fault identical:/ { id=$$5 } \
	      END { \
	        if (id == "") { print "bench-compare: missing fault-replay output"; exit 1 } \
	        printf "fault-replay zero-fault plan identical to nil plan: %s\n", id; \
	        if (id != "true") { print "FAIL: a zero-rate fault plan changed replay Results - the injection seams are not free when idle"; exit 1 } \
	      }' out/micro_new.txt
	@awk '/^fleet replay identical:/ { id=$$4 } \
	      /^fleet recovered:/ { split($$3, frac, "/"); rec=frac[1]; total=frac[2]; floor=$$6 } \
	      END { \
	        if (id == "" || rec == "") { print "bench-compare: missing fleet-replay output"; exit 1 } \
	        printf "fleet 1-device replay identical to bare SSD: %s; death sweep recovered %s/%s (floor %s)\n", id, rec, total, floor; \
	        if (id != "true") { print "FAIL: a 1-device fleet diverged from the bare SSD - the placement/failover layer is not free when idle"; exit 1 } \
	        if (rec+0 < floor+0) { print "FAIL: device-death sweep recovered fewer tenants than the committed floor"; exit 1 } \
	      }' out/micro_new.txt
	@if command -v benchstat >/dev/null 2>&1 && [ -f out/bench_old.txt ]; then \
		benchstat out/bench_old.txt out/bench_new.txt; \
	else \
		echo "(install benchstat and save out/bench_old.txt for old-vs-new deltas)"; \
	fi

# fuzz gives each cipher/MEE/trace/fault fuzz target a short budget
# beyond the committed regression corpus in testdata/fuzz. The Trivium
# targets differentially check the word-parallel engine against the
# bit-serial reference on every input; the traffic target does the same
# for the batched traffic model against its per-line TrafficReference
# oracle; the trace target pins that arbitrary CSV input parses to a
# typed error or a well-formed schedule, never a panic or a silent row
# drop; the fault target derives arbitrary plans and requires the
# decision stream to be repeatable, probability-bounded, and panic-free
# at every site/ordinal.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzKeystreamRoundTrip -fuzztime=20s ./internal/trivium
	$(GO) test -run='^$$' -fuzz=FuzzEnginePageRoundTrip -fuzztime=20s ./internal/trivium
	$(GO) test -run='^$$' -fuzz=FuzzEngineWriteReadMAC -fuzztime=20s ./internal/mee
	$(GO) test -run='^$$' -fuzz=FuzzEngineCounterReplay -fuzztime=20s ./internal/mee
	$(GO) test -run='^$$' -fuzz=FuzzTrafficBatchedVsReference -fuzztime=20s ./internal/mee
	$(GO) test -run='^$$' -fuzz=FuzzTraceReader -fuzztime=20s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzFaultPlan -fuzztime=20s ./internal/fault
