#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md): formatting, static
# analysis, a full build, the whole test suite, and a race-detector
# pass. Everything must pass before a change lands.
#
# The race pass uses -short: the race detector slows the log-scale
# calibration/replay suites (internal/experiments) by an order of
# magnitude, past the per-package test timeout on small machines,
# and they are single-goroutine anyway. Every concurrent code path —
# fleet serving, load generation, workload, cloudletos — runs under
# the detector at full depth, and so does the result database's
# differential test against its legacy reference (the buffers it hands
# to the flash store are shared views, not copies).
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

echo "== go test ./... =="
go test ./...

echo "== go test -race -short ./... =="
go test -race -short ./...

echo "== hit-path, index and lock rails x3: go test -race -count 3 =="
# The rails of the rebuilt hit path (internal/fleet/hitpath_test.go):
# counters that live with the shard still cross-foot through concurrent
# Do/Submit and live resizes — miss-plan and batch-session
# counters included, on a lossy hedged batched fleet — a resize moves no
# Stats field (the retirement fold), a caller-run Do handed on (held,
# parked, paced) is answered exactly once, the striped route fence
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
# route a priced miss takes (caller-run, paused, batched).
go test -race -count 3 -run 'TestCountersCrossFootThroughResizes|TestResizeLeavesStatsAlone|TestCallerRunDoAnsweredOnceWhenHandedOn|TestRouteFence|TestHitPathLayout|TestEvictionIndexGolden|TestTableMatchesOracle|TestFromPairsMatchesDecode|TestMutualExclusion|TestProgressOnOneProcessor|TestLongHoldParks|TestQueuedWaiterDoesNotSpin|TestPricePureUnderEviction|TestSpinePublication|TestBackendDeterministicConcurrent' ./internal/fleet ./internal/hashtable ./internal/spinlock ./internal/backend

echo "== benchmark smoke + golden digests: (cd bench && go test -short -race ./...) =="
# bench/ is its own module (BENCHMARK.json's program), so neither root
# `go test ./...` pass above reaches it. Its smoke test runs both passes
# of all four workloads at a small scale and holds every simulated
# statistic against bench/golden/ — the digests are what a change to
# the model's internals (backend timeline, planners) must not move.
# One run, under the race detector (~40 s).
(cd bench && go test -short -race ./...)

echo "== fuzz seed-corpus regression: go test -run Fuzz ./... =="
# Replays every fuzz target over its committed seed corpus (plus any
# crashers committed to testdata/fuzz) without open-ended fuzz time, so
# once a crasher is fixed it stays fixed. -fuzz is deliberately absent:
# this is a regression gate, not a search.
go test -run Fuzz ./...

echo "== fault-injection smoke: loadtest -faults -check =="
# A short closed-loop run under loss + a periodic outage with batching
# and the adaptive linger window, with the report invariants verified
# by the binary itself (-check): no panics, no errors, every served
# request attributed to exactly one tier (including the degraded ones),
# the energy ledger in step with the collector. When CHECK_ARTIFACT_DIR is set
# (CI does this) the JSON report is kept there instead of discarded,
# so the workflow can upload it as an artifact.
smoke_out=/dev/null
if [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$CHECK_ARTIFACT_DIR"
    smoke_out="$CHECK_ARTIFACT_DIR/loadtest-faults.json"
fi
go run ./cmd/loadtest -mode closed -users 100 -duration 0 -seed 3 \
    -faults -loss 0.3 -outage 6s/30s -retries 3 \
    -batch -batchadaptive -check -json > "$smoke_out"

echo "== hedged determinism smoke: clone factor 1 ≡ single backend =="
# The replicated-backend acceptance guarantee (DESIGN.md, "Hedged
# misses and replicas"): a fleet with -replicas 3 and hedging off
# (clone factor 1) must be model-indistinguishable from the
# single-backend fleet. Both runs are normalized by cmd/reportnorm
# (wall-clock fields stripped, floats canonicalized) and then must be
# byte-identical. A second run with clone factor 2 exercises the hedge
# telemetry cross-foot invariants (-check): primary wins + clone wins
# partition the cloud serves, clone wins never exceed clones launched.
hedge_tmp=$(mktemp -d)
trap 'rm -rf "$hedge_tmp"' EXIT
hedge_smoke() {
    go run ./cmd/loadtest -mode closed -users 64 -duration 0 -seed 3 \
        -faults -loss 0.2 -outage 6s/30s -retries 3 "$@" -json |
        go run ./cmd/reportnorm
}
hedge_smoke > "$hedge_tmp/single.json"
hedge_smoke -replicas 3 -hedge 1 > "$hedge_tmp/clone1.json"
if ! diff -u "$hedge_tmp/single.json" "$hedge_tmp/clone1.json"; then
    echo "hedged determinism smoke: clone factor 1 diverged from the single backend" >&2
    exit 1
fi
hedged_out=/dev/null
if [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
    hedged_out="$CHECK_ARTIFACT_DIR/loadtest-hedged.json"
fi
go run ./cmd/loadtest -mode closed -users 64 -duration 0 -seed 3 \
    -faults -loss 0.2 -outage 6s/30s -retries 3 \
    -replicas 3 -hedge 2 -check -json > "$hedged_out"

echo "== backend byte-identity smoke: -backend-rate inf ≡ no backend =="
# The queued-backend acceptance guarantee (DESIGN.md, "Queued
# backends"): an infinitely fast backend prices every admission at
# zero, so a faulted hedged run with -backend-rate inf must be
# model-indistinguishable from the same run without the backend.
# reportnorm strips the per-replica backend rows by default, which are
# the only permitted report difference.
hedge_smoke -replicas 3 -hedge 2 > "$hedge_tmp/nobackend.json"
hedge_smoke -replicas 3 -hedge 2 -backend-rate inf > "$hedge_tmp/infrate.json"
if ! diff -u "$hedge_tmp/nobackend.json" "$hedge_tmp/infrate.json"; then
    echo "backend byte-identity smoke: -backend-rate inf diverged from the backend-free run" >&2
    exit 1
fi

echo "== backend smoke: finite-rate queued replicas -check =="
# A finite-rate bounded PS backend under hedged load, with the report
# invariants verified by the binary itself (-check): per-replica
# arrivals = served + rejected + abandoned, utilization and wait
# accounting non-negative, abandoned-work fraction in [0, 1].
backend_out=/dev/null
if [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
    backend_out="$CHECK_ARTIFACT_DIR/loadtest-backend.json"
fi
go run ./cmd/loadtest -mode closed -users 64 -duration 0 -seed 3 \
    -faults -loss 0.2 -retries 3 -replicas 3 -hedge 2 \
    -backend-rate 30 -backend-queue 16 -backend-disc ps \
    -backend-offered 20 -backend-cancel -check -json > "$backend_out"

echo "== scenario smoke: loadtest -scenario flash-crowd -check =="
# The flash-crowd preset at a small population: two SLO classes (a flat
# steady floor plus a diurnal crowd spike), multi-class open-loop
# scheduling, and the per-class report rows, with the same -check
# invariants plus the per-class sum checks. Exercises the scenario
# compile path end to end on every gate run.
scenario_out=/dev/null
if [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
    scenario_out="$CHECK_ARTIFACT_DIR/loadtest-flash-crowd.json"
fi
go run ./cmd/loadtest -scenario flash-crowd -users 150 -check -json > "$scenario_out"

echo "== autoscale smoke: green-day preset -check =="
# The green-day preset drives the occupancy autoscaler over a diurnal
# day curve: the controller samples per-shard occupancy on its
# model-time cadence and resizes the ring-routed fleet between its
# bounds. -check verifies the new invariants end to end — the energy
# ledger's device and radio joules track the collector's per-response
# sums, and the autoscale action chain is well-formed (From→To links,
# targets within bounds, final size matches the last action).
autoscale_out=/dev/null
if [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
    autoscale_out="$CHECK_ARTIFACT_DIR/loadtest-green-day.json"
fi
go run ./cmd/loadtest -scenario green-day -users 300 -check -json > "$autoscale_out"

echo "== autoscale determinism smoke: two identical runs =="
# Controller decisions sample occupancy after a fleet drain, so every
# resize is a pure function of the tape prefix: two identical
# autoscaled diurnal runs must agree byte-for-byte on the normalized
# report, energy ledger and autoscale action log included.
as_smoke() {
    go run ./cmd/loadtest -users 200 -qps 800 -duration 2s -seed 5 \
        -arrivals diurnal -diurnal-peak 6 -placement ring -shards 4 \
        -autoscale -autoscale-interval 250ms -autoscale-rate 120 -json |
        go run ./cmd/reportnorm
}
as_smoke > "$hedge_tmp/autoscale1.json"
as_smoke > "$hedge_tmp/autoscale2.json"
if ! diff -u "$hedge_tmp/autoscale1.json" "$hedge_tmp/autoscale2.json"; then
    echo "autoscale determinism smoke: two identical runs diverged" >&2
    exit 1
fi

echo "== bench smoke: FleetServe =="
# A short fixed run of each fleet serving benchmark (batched and
# unbatched) so a regression that breaks the benchmark fixtures fails
# the gate. The 100k-user benchmark's steady-state hit path is
# allocation-free by construction (see DESIGN.md, "Capacity model"); any
# allocs/op above zero is a serving-path regression and fails the gate.
# BenchmarkFleetServeDo's fixture hands the caller the result text, so
# its steady state is the two allocations that text costs (one copy of
# the stored record, one Results slice — DESIGN.md, "The zero-allocation
# serve path"); a third is a regression too. BenchmarkFleetServeDoContended
# (internal/fleet: two clients on two shards, hit_closed's contention) is
# held to the same ceiling: a lock waiter that spins allocates nothing.
# allocs_per_op prints "<benchmark> <allocs/op>" for every result line of
# the `go test -bench` output on stdin whose name starts with $1.
allocs_per_op() {
    awk -v prefix="$1" 'index($1, prefix) == 1 {
        for (i = 3; i + 1 <= NF; i += 2) if ($(i + 1) == "allocs/op") print $1, $i
    }'
}
bench_raw=$(go test -bench FleetServe -benchtime 2000x -benchmem -run '^$' . ./internal/fleet)
echo "$bench_raw"
for gate in BenchmarkFleetServe100kUsers:0 BenchmarkFleetServeDo:2 BenchmarkFleetServeDoContended:2; do
    name=${gate%:*} want=${gate#*:}
    # The name itself, or with the -GOMAXPROCS suffix — not a longer name.
    allocs=$(echo "$bench_raw" | allocs_per_op "$name" | awk -v n="$name" '$1 == n || index($1, n "-") == 1 {print $2}')
    if [ -z "$allocs" ]; then
        echo "bench smoke: $name produced no allocs/op metric" >&2
        exit 1
    fi
    if [ "$allocs" -gt "$want" ]; then
        echo "bench smoke: $name regressed to $allocs allocs/op (recorded $want)" >&2
        exit 1
    fi
done

echo "== heap gate: fleet cold fill =="
# A fresh fleet filled by 1,000 users' months on one goroutine, its live
# heap per resident user read after a forced collection (DESIGN.md,
# "Capacity model"): deterministic to a few bytes on a given toolchain,
# whatever GOMAXPROCS. A structure that grows per user or per record —
# a record copied instead of shared, a map sized by configuration — shows
# here first. Recorded 13,317 B/user; more than 5% above it fails.
heap_raw=$(go test -bench FleetColdFillHeap -benchtime 1x -run '^$' .)
echo "$heap_raw"
heap_per_user=$(echo "$heap_raw" | awk '$1 ~ /^BenchmarkFleetColdFillHeap/ {
    for (i = 3; i + 1 <= NF; i += 2) if ($(i + 1) == "B/user") print $i
}')
if [ -z "$heap_per_user" ]; then
    echo "heap gate: BenchmarkFleetColdFillHeap produced no B/user metric" >&2
    exit 1
fi
if awk -v got="$heap_per_user" 'BEGIN { exit !(got > 13317 * 1.05) }'; then
    echo "heap gate: $heap_per_user B/user live after a cold fill (recorded 13317, +5% allowed)" >&2
    exit 1
fi

echo "== bench smoke: worker-queue hop =="
# Bursts of 512 warmed Submits with a Drain after each: a burst fits the
# buffers a drained queue keeps (DESIGN.md, "The worker queues"), so the
# queue hop allocates nothing per request in steady state.
queue_raw=$(go test -bench FleetSubmitDrain -benchtime 20000x -benchmem -run '^$' ./internal/fleet)
echo "$queue_raw"
queue_allocs=$(echo "$queue_raw" | allocs_per_op BenchmarkFleetSubmitDrain | awk '{print $2}')
if [ "$queue_allocs" != "0" ]; then
    echo "bench smoke: BenchmarkFleetSubmitDrain at '${queue_allocs}' allocs/op (recorded 0)" >&2
    exit 1
fi

echo "== bench smoke: PocketSearch hit =="
# A hit that materializes no result text probes its index once and
# touches nothing it has to allocate for (DESIGN.md, "The zero-allocation
# serve path"): BenchmarkQueryHit stays at 0 allocs/op.
hit_raw=$(go test -bench 'QueryHit$' -benchtime 20000x -benchmem -run '^$' ./internal/pocketsearch)
echo "$hit_raw"
hit_allocs=$(echo "$hit_raw" | allocs_per_op BenchmarkQueryHit | awk '{print $2}')
if [ "$hit_allocs" != "0" ]; then
    echo "bench smoke: BenchmarkQueryHit at '${hit_allocs}' allocs/op (recorded 0)" >&2
    exit 1
fi

echo "== bench smoke: result database Put =="
# A Put inserts one entry into its database's slab, which grows by an
# eighth when full (DESIGN.md, "The resultdb slab"), so a run of Puts
# into fresh databases — the per-user shape and the 256-record one —
# costs less than one allocation a Put: both BenchmarkPut rows report
# 0 allocs/op. A per-file copy or a per-write file value coming back
# shows here as 2 or more.
put_raw=$(go test -bench 'BenchmarkPut' -benchtime 20000x -benchmem -run '^$' ./internal/resultdb)
echo "$put_raw"
put_allocs=$(echo "$put_raw" | allocs_per_op BenchmarkPut)
if [ -z "$put_allocs" ]; then
    echo "bench smoke: BenchmarkPut produced no allocs/op metric" >&2
    exit 1
fi
if echo "$put_allocs" | grep -qv ' 0$'; then
    echo "bench smoke: resultdb.Put allocates per write (baseline 0):" >&2
    echo "$put_allocs" | grep -v ' 0$' >&2
    exit 1
fi

echo "== bench smoke: backend Price =="
# Steady-state pricing is allocation-free by construction (DESIGN.md,
# "Queued backends": saved states are unpacked into a replay from the
# replica's free list): every BenchmarkPrice* row, FIFO and PS, one
# goroutine or one per processor (BenchmarkPriceParallel), must report
# 0 allocs/op.
price_raw=$(go test -bench Price -benchtime 2000x -benchmem -run '^$' ./internal/backend)
echo "$price_raw"
price_allocs=$(echo "$price_raw" | allocs_per_op BenchmarkPrice)
if [ -z "$price_allocs" ]; then
    echo "bench smoke: BenchmarkPrice* produced no allocs/op metric" >&2
    exit 1
fi
if echo "$price_allocs" | grep -qv ' 0$'; then
    echo "bench smoke: backend pricing allocates in steady state (baseline 0):" >&2
    echo "$price_allocs" | grep -v ' 0$' >&2
    exit 1
fi

echo "== bench smoke: clean miss plan =="
# A miss with nothing to go wrong and nothing to hedge across is planned
# through the same faults.PlanHedged call as every other miss; its
# one-launch plan holds its launch inline and fills no slices (DESIGN.md,
# "The miss path"), so both BenchmarkPlanClean rows — no injector, inert
# injector — must report 0 allocs/op.
plan_raw=$(go test -bench PlanClean -benchtime 20000x -benchmem -run '^$' ./internal/faults)
echo "$plan_raw"
plan_allocs=$(echo "$plan_raw" | allocs_per_op BenchmarkPlanClean)
if [ -z "$plan_allocs" ]; then
    echo "bench smoke: BenchmarkPlanClean produced no allocs/op metric" >&2
    exit 1
fi
if echo "$plan_allocs" | grep -qv ' 0$'; then
    echo "bench smoke: the clean miss plan allocates (baseline 0):" >&2
    echo "$plan_allocs" | grep -v ' 0$' >&2
    exit 1
fi

echo "== bench smoke: engine Search =="
# A cloud miss under DiscardResults reads only the response's page size,
# and result text is materialized per result on demand (DESIGN.md,
# "Result text on demand"), so resolving a query allocates nothing:
# BenchmarkSearch must stay at its recorded 0 allocs/op.
search_raw=$(go test -bench 'Search$' -benchtime 2000x -benchmem -run '^$' ./internal/engine)
echo "$search_raw"
search_allocs=$(echo "$search_raw" | allocs_per_op BenchmarkSearch | awk '{print $2}')
if [ -z "$search_allocs" ]; then
    echo "bench smoke: BenchmarkSearch produced no allocs/op metric" >&2
    exit 1
fi
if [ "$search_allocs" != "0" ]; then
    echo "bench smoke: engine.Search regressed to $search_allocs allocs/op (recorded 0)" >&2
    exit 1
fi

echo "== serve-stack size: non-test Go lines =="
# ROADMAP's "one serve path, one driver, one configuration surface"
# item is graded in non-test lines across these four directories;
# simplicity PRs quote their before/after from here. Informational,
# never a failure.
# internal/scenario — the configuration surface those four are driven
# through — is tallied separately so the graded total stays comparable
# across PRs.
nontest_lines() {
    for d in "$@"; do
        find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0
    done | sort -z | xargs -0 wc -l
}
nontest_lines internal/fleet internal/faults internal/loadgen cmd/loadtest
nontest_lines internal/scenario

echo "all checks passed"
