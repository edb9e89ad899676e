#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md): formatting, static
# analysis, a full build, a vet and build for two other architectures,
# the whole test suite, one iteration of the backend pricing
# benchmarks and of the result database and cache layer benchmarks, a
# race-detector pass,
# the scheduling-dependent rails three times over under the detector,
# and the benchmark module's smoke test. Everything must pass before a
# change lands. The performance contracts — allocation ceilings, the
# cold-fill heap ceiling, the per-user object layout
# (TestUserStateLayout), loadtest's end-to-end smokes — are tests that
# `go test ./...` runs (DESIGN.md, "Gates"), and so is every fuzz
# target over its seed corpus.
#
# The race pass uses -short: the race detector slows the log-scale
# calibration/replay suites (internal/experiments) by an order of
# magnitude, past the per-package test timeout on small machines,
# and they are single-goroutine anyway. Every concurrent code path —
# fleet serving, load generation, workload, cloudletos — runs under
# the detector at full depth, and so do the result database's
# differential tests against its legacy reference: after every step they
# compare each file's bytes (the database's rendering of its entries,
# which it keeps itself, not in its flash store), every latency and the
# flash counters. The records of a cache's database are named in the
# engine's record source, which every cache over that engine shares.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "files need gofmt:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== cross-architecture: vet and build for arm64, build for s390x =="
# An amd64 build never compiles the files that only other platforms
# build — internal/backend's expdraw_other.go, the draw kernel's
# dispatch where there is no assembly — nor vets them. arm64 fuses
# multiply-adds; s390x has math.Log1p in assembly.
GOARCH=arm64 go vet ./...
GOARCH=arm64 go build ./...
GOARCH=s390x go build ./...

echo "== go test ./... =="
go test ./...

echo "== backend pricing benchmarks, one iteration each =="
# go test runs no benchmark, so this is what executes every
# BenchmarkPrice* access pattern (in order, shuffled, walkers, users,
# parallel) at each gate: a pattern that panics or a pricer that stops
# building fails here. One iteration times nothing.
go test -run '^$' -bench BenchmarkPrice -benchtime 1x ./internal/backend

echo "== result database and cache benchmarks, one iteration each =="
# The layer rows over the database's record API — Put and Get on a
# database that keeps the bytes it is handed, a cache hit and a cache
# miss over one that names its records — so a row that stops building
# or panics fails here. One iteration times nothing.
go test -run '^$' -bench 'BenchmarkPut|BenchmarkGet|BenchmarkQueryHit|BenchmarkQueryMiss' -benchtime 1x ./internal/resultdb ./internal/pocketsearch

echo "== shard lock benchmark, one iteration =="
# The layer row of a shard's locks: hits and misses of one shard's users
# served side by side (BenchmarkShardParallel). One iteration times
# nothing.
go test -run '^$' -bench BenchmarkShardParallel -benchtime 1x ./internal/fleet

echo "== go test -race -short ./... =="
go test -race -short ./...

echo "== hit-path, index and lock rails x3: go test -race -count 3 =="
# The rails of the rebuilt hit path (internal/fleet/hitpath_test.go):
# counters that live with the shard still cross-foot through concurrent
# Do/Submit and resizes — miss-plan and batch-session
# counters included, on a lossy hedged batched fleet — a resize moves no
# Stats field (the retirement fold), a caller-run Do handed on (parked,
# priced) is answered exactly once, a resize's fence and drain lose,
# reorder and cold-serve nothing (resize ≡ no resize, exactly-once
# accounting under concurrent Do and Submit, the pipelined transfer ≡
# the one-at-a-time loop, Close racing caller-run Do), the striped route fence
# excludes what one lock would, and the cache-line layout they rest on.
# Scheduling-dependent, so three rounds under the detector. With them, the
# per-user cache index's rails: the slab hash table against its
# map-of-chains oracle, and the eviction lists against the golden the
# map-keyed index recorded (internal/fleet/testdata/evictindex.golden).
# And the lock the shard and the backend replica serve under
# (internal/spinlock: exclusion from 8 goroutines, progress on one
# processor, a lone waiter behind a 20 ms hold that spins, blocks and
# returns only after the release, a queued waiter that does not spin),
# with backend pricing under concurrent walkers. A priced miss replays
# under no lock: replays side by side publish the spine a serial run
# builds, and four clients serve every user what one client does on each
# route a priced miss takes (caller-run, slow-priced, batched); and with
# every user on one shard, eight clients serve every user what one does
# on each route a request takes under its user stripe (plain, evicting,
# outage, batched, priced). And the
# open-loop schedule's producer (internal/loadgen): the chunked stream is
# the one-shot schedule at every chunk size, handed over and recycled
# across goroutines, and a run that fails mid-replay stops its producer
# before it returns. And the closed loop's event timeline: its users stop
# at each event and resume after it, so a mid-month resize gives one
# report at any worker count (cmd/loadtest), and no timeline strands a
# user or fires an event twice. And the report itself: a faulted, hedged
# closed run against a finite-rate backend and an open-loop run that
# sheds nothing print the same report, every digit, at one worker and at
# several. And the stage rail: a response's stages are booked through a
# window on the vector its server hands the device, and the community
# replica's device, which only commMu guards, serves every user of its
# shard, so every response's stages must equal what the user's and the
# replica's power traces recorded during it.
go test -race -count 3 -run 'TestStagesMatchTheTrace|TestCountersCrossFootThroughResizes|TestResizeLeavesStatsAlone|TestCallerRunDoAnsweredOnceWhenHandedOn|TestResizeEquivalence|TestResizeWhileServing|TestResizeUnderCallerRunDo|TestPipelinedResizeMatchesOneAtATime|TestCloseRacesCallerRunDo|TestRouteFence|TestHitPathLayout|TestEvictionIndexGolden|TestTableMatchesOracle|TestFromPairsMatchesDecode|TestMutualExclusion|TestProgressOnOneProcessor|TestLongHoldParks|TestQueuedWaiterDoesNotSpin|TestPricePureUnderEviction|TestSpinePublication|TestBackendDeterministicConcurrent|TestOneShardClientsAgree|TestChunkBoundaries|TestNoProducerOutlivesItsRun|TestClosedTimelinesEnd|TestClosedLoopResizeRail|TestReportIsExact' ./internal/fleet ./internal/hashtable ./internal/spinlock ./internal/backend ./internal/loadgen ./cmd/loadtest

echo "== benchmark smoke + golden digests: (cd bench && go test -short -race ./...) =="
# bench/ is its own module (BENCHMARK.json's program), so neither root
# `go test ./...` pass above reaches it. Its smoke test runs both passes
# of all four workloads at a small scale and holds every simulated
# statistic against bench/golden/ — the digests are what a change to
# the model's internals (backend timeline, planners) must not move.
# One run, under the race detector (~40 s).
(cd bench && go test -short -race ./...)

echo "== serve-stack size: non-test Go lines =="
# ROADMAP's "one serve path, one driver, one configuration surface"
# item is graded in non-test lines across these four directories;
# simplicity PRs quote their before/after from this line. Informational,
# never a failure.
# internal/scenario — the configuration surface those four are driven
# through — and the result database and the flash model under it
# (internal/resultdb, internal/flashsim) are tallied separately so the
# graded total stays comparable across PRs.
nontest_lines() {
    for d in "$@"; do
        find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0
    done | xargs -0 cat | wc -l
}
echo "graded tally (internal/fleet internal/faults internal/loadgen cmd/loadtest): $(nontest_lines internal/fleet internal/faults internal/loadgen cmd/loadtest) lines"
echo "internal/scenario: $(nontest_lines internal/scenario) lines"
echo "internal/resultdb: $(nontest_lines internal/resultdb) lines"
echo "internal/flashsim: $(nontest_lines internal/flashsim) lines"

echo "all checks passed"
