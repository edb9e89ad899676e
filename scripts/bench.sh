#!/usr/bin/env bash
# Runs the fleet serving benchmarks (BenchmarkFleetServe* in the root
# package; in internal/fleet the two-client shard-lock contention,
# BenchmarkFleetServeDoContended, and the worker-queue hop on its own,
# BenchmarkFleetSubmitDrain), the miss-path planning benchmarks
# (BenchmarkPrice* in internal/backend, BenchmarkPlanHedgedPriced and
# BenchmarkPlanClean in internal/faults), the cold-miss write-path benchmarks
# (BenchmarkSearch* in internal/engine, BenchmarkPut in
# internal/resultdb, BenchmarkQueryMiss in internal/pocketsearch), the
# hit's own layers (BenchmarkQueryHit in internal/pocketsearch,
# BenchmarkHistogramObserve in internal/loadgen) and the
# open-loop day's schedule-build and migration benchmarks
# (BenchmarkScheduleDiurnal in internal/modeltime, BenchmarkMonthLog in
# internal/workload, BenchmarkResizeMigrate in internal/fleet), and
# writes a machine-readable snapshot to BENCH_<date>.json so successive
# runs can be diffed for regressions.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=100000x COUNT=9 scripts/bench.sh   # longer, steadier numbers
#
# Every row is a fixed iteration count, so a row means the same thing on
# every host and in CI (where the script runs non-gating, see
# .github/workflows/ci.yml). The fleet serving and queue rows run COUNT
# times and the snapshot records each metric's median plus the ns/op
# range, so one slow first-touch iteration or a noisy neighbour cannot
# become history (the first three BENCH_*.json files recorded
# FleetServe* at one iteration each; their ns/op, B/op and allocs/op are
# first-touch costs, not steady state).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-20000x}"
COUNT="${COUNT:-5}"
OUT="${1:-BENCH_$(date -u +%Y%m%d).json}"

raw=$(go test -bench 'FleetServe|FleetSubmitDrain' -benchtime "$BENCHTIME" -count "$COUNT" \
    -benchmem -run '^$' . ./internal/fleet)
echo "$raw"

# The miss path's planning layers: backend pricing in order, shuffled
# and as interleaved per-user clocks, a hedged plan priced against the
# backend, and the clean one-launch plan of a miss with nothing to go
# wrong. Each priced row explores its horizon in an untimed pass, so a
# fixed iteration count measures steady state whatever BENCHTIME says
# (the rows' own "iterations" field records it).
layer_raw=$(go test -bench 'Price|PlanHedgedPriced|PlanClean' -benchtime 20000x \
    -benchmem -run '^$' ./internal/backend ./internal/faults)
echo "$layer_raw"
raw="$raw"$'\n'"$layer_raw"

# The cold-miss write path, layer by layer: the engine resolving a query
# (and materializing the clicked result), the result database taking a
# record (per-user and repository-benchmark shapes), and a whole
# PocketSearch miss with its cache expansion. Fixed iteration counts
# again: Put and QueryMiss refill fresh databases every 40/256
# iterations, so ns/op is a mean over whole fills only at a multiple.
write_raw=$(go test -p 1 -bench 'Search|Put|QueryMiss' -benchtime 51200x \
    -benchmem -run '^$' ./internal/engine ./internal/resultdb ./internal/pocketsearch)
echo "$write_raw"
raw="$raw"$'\n'"$write_raw"

# The layers under a hit that the fleet rows above do not isolate: one
# PocketSearch hit (probe, fetch, render, click, accessed bit — no result
# text) and one latency sample into the collector's histogram (two per
# response).
hit_raw=$(go test -p 1 -bench 'QueryHit|HistogramObserve' -benchtime 200000x -count "$COUNT" \
    -benchmem -run '^$' ./internal/pocketsearch ./internal/loadgen)
echo "$hit_raw"
raw="$raw"$'\n'"$hit_raw"

# The open-loop day's driver-side half, where the work is: the diurnal
# arrival schedule (ns/arrival at 300k arrivals over a second and over a
# day), the month log behind the request tape (5,000 users) and live
# migration (us per moved user, ring 4→6→4 over warmed users). Whole
# builds and whole resizes per iteration, so ten of each.
day_raw=$(go test -p 1 -bench 'ScheduleDiurnal|MonthLog|ResizeMigrate' -benchtime 10x -count "$COUNT" \
    -benchmem -run '^$' ./internal/modeltime ./internal/workload ./internal/fleet)
echo "$day_raw"
raw="$raw"$'\n'"$day_raw"

# A short hedged fault run, normalized by cmd/reportnorm so it is
# byte-deterministic, rides along in the snapshot: its hedge counters
# (clones launched, primary/clone wins, wasted attempts) are pure
# model outputs, so a diff between two snapshots surfaces any drift
# in the hedging policy the serving benchmarks would not see. The
# queued backends are on (finite rate, bounded PS, cancel-on-win) and
# the per-replica rows kept (-keep backend), so backend utilization,
# queue-wait counters and joules-per-answered diff across commits too.
hedged=$(go run ./cmd/loadtest -mode closed -users 64 -duration 0 -seed 3 \
    -faults -loss 0.2 -outage 6s/30s -retries 3 \
    -replicas 3 -hedge 2 \
    -backend-rate 30 -backend-queue 16 -backend-disc ps \
    -backend-offered 20 -backend-cancel -json |
    go run ./cmd/reportnorm -keep backend)

# An autoscaled diurnal run rides along as well: its energy ledger and
# autoscale action log are pure model outputs (occupancy is sampled
# after a drain), so a snapshot diff surfaces any drift in the
# controller policy or the shard power model — in particular the
# headline per_answered_j joules-per-answered-query metric.
autoscaled=$(go run ./cmd/loadtest -users 200 -qps 800 -duration 2s -seed 5 \
    -arrivals diurnal -diurnal-peak 6 -placement ring -shards 4 \
    -autoscale -autoscale-interval 250ms -autoscale-rate 120 -json |
    go run ./cmd/reportnorm)

{
    echo '{'
    echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"benchtime\": \"$BENCHTIME\","
    echo "  \"count\": $COUNT,"
    echo "  \"go\": \"$(go env GOVERSION)\","
    echo '  "benchmarks": ['
    # One row per benchmark name: the median of each metric over the
    # runs of that name, the run count, and the ns/op range.
    echo "$raw" | awk '
        # stats sorts the n runs recorded under key and sets med, lo, hi.
        function stats(key, n,    i, j, t, v) {
            for (i = 1; i <= n; i++) v[i] = vals[key, i];
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j] + 0 < v[j - 1] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
            med = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2;
            lo = v[1]; hi = v[n];
        }
        /^Benchmark/ {
            name = $1;
            if (!(name in runs)) order[++names] = name;
            r = ++runs[name]; iters[name] = $2;
            for (i = 3; i + 1 <= NF; i += 2) {
                unit = $(i + 1);
                if (!((name, unit) in seen)) { seen[name, unit] = 1; units[name, ++nunits[name]] = unit }
                vals[name SUBSEP unit, r] = $i;
            }
        }
        END {
            for (k = 1; k <= names; k++) {
                name = order[k]; metrics = "";
                for (u = 1; u <= nunits[name]; u++) {
                    unit = units[name, u];
                    stats(name SUBSEP unit, runs[name]);
                    if (unit == "ns/op") range = "[" lo ", " hi "]";
                    if (metrics != "") metrics = metrics ", ";
                    metrics = metrics "\"" unit "\": " med;
                }
                line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"runs\": %d, \"ns_per_op_range\": %s, \"metrics\": {%s}}",
                    name, iters[name], runs[name], range, metrics);
                printf "%s%s", (k > 1 ? ",\n" : ""), line;
            }
            print "";
        }
    '
    echo '  ],'
    echo "  \"hedged_loadtest\": $hedged,"
    echo "  \"autoscaled_loadtest\": $autoscaled"
    echo '}'
} > "$OUT"

echo "wrote $OUT"
