#!/usr/bin/env bash
# Report differential against another commit: builds cmd/loadtest from
# <git-ref> (a `git archive` snapshot in a temp dir — no worktree to
# clean up) and from the working tree, runs a fixed list of command
# lines through both, normalizes each JSON report with the tree's
# `reportnorm -keep backend` (it is loadtest being compared: wall-clock
# fields stripped, every model-deterministic block kept, every number
# as printed) and compares the pairs byte for byte. Exits non-zero at
# the first difference. Reports are exact — the collector sums joules
# in integer nanojoules as the ledger does — so a difference in any
# digit is real. Against a ref whose collector summed float joules,
# every row differs in the last digits of energy_j, energy_per_query_j,
# radio_energy_j and radio_energy_per_miss_j (total and class rows),
# and the ref's own figures vary from run to run.
#
# The list covers every cmd/loadtest TestSmokes row plus the corners a
# configuration or driver refactor can bend (-hedge 1, bare -faults,
# -backend-rate inf, ring/vnodes, -pace, peruser and diurnal+autoscale
# open runs, the open-loop -scenario presets single- and multi-class, a
# spec file in which only one of two classes hedges, a spec file whose
# timeline resizes the fleet twice — once migrating, once dropping
# movers' state), and a trace leg: one trace written by the tree's
# tracegen, replayed by both sides in trace mode. Runs whose model
# outcome legitimately follows the wall clock are left out (-batch with
# -outage), and open-loop flag runs and spec files use a queue of
# 100000 so nothing sheds.
#
# A second leg compares cmd/experiments the same way: both sides run
# `-quick -run <every name both sides' -list prints>` once, with the
# wall-clock "computed in" notes and "total:" line dropped, and the two
# outputs must be byte-identical. A name only one side lists is printed,
# not compared. Each side's run takes about 30 s on two cores.
#
#   scripts/clidiff.sh HEAD~1
set -euo pipefail
cd "$(dirname "$0")/.."
ref=${1:?usage: scripts/clidiff.sh <git-ref>}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
(cd "$tmp/ref" && go build -o "$tmp/ref-loadtest" ./cmd/loadtest && go build -o "$tmp/ref-experiments" ./cmd/experiments)
go build -o "$tmp/new-loadtest" ./cmd/loadtest
go build -o "$tmp/new-experiments" ./cmd/experiments
go build -o "$tmp/reportnorm" ./cmd/reportnorm
go build -o "$tmp/tracegen" ./cmd/tracegen

"$tmp/tracegen" -scenario flash-crowd -users 150 -o "$tmp/crowd.trace" 2> /dev/null
cat > "$tmp/replay.json" <<EOF_SPEC
{"version": 1, "name": "replay", "mode": "trace", "trace": "$tmp/crowd.trace", "users": 150, "duration": "3s",
 "fleet": {"shards": 4, "queue": 100000}}
EOF_SPEC

closed="-mode closed -users 64 -duration 0 -seed 3"
faulted="$closed -faults -loss 0.2 -outage 6s/30s -retries 3"
n=0
while IFS= read -r args; do
    [ -n "$args" ] || continue
    n=$((n + 1))
    for side in ref new; do
        # shellcheck disable=SC2086 # args is a word list
        "$tmp/$side-loadtest" $args -json | "$tmp/reportnorm" -keep backend > "$tmp/$side.json"
    done
    if ! cmp -s "$tmp/ref.json" "$tmp/new.json"; then
        echo "clidiff: reports differ between $ref and the tree for: loadtest $args" >&2
        diff -u "$tmp/ref.json" "$tmp/new.json" | head -40 >&2
        exit 1
    fi
    echo "same: loadtest $args"
done <<EOF_CMDS
$closed
$closed -faults
$closed -placement ring -vnodes 32
$closed -radio wifi -share 0.4 -month 2 -userbudget 200000
$closed -pace 0.0001
$faulted
$faulted -replicas 3 -hedge 1
$faulted -replicas 3 -hedge 2
$faulted -replicas 3 -hedge 2 -backend-rate inf
$closed -faults -loss 0.2 -retries 3 -replicas 3 -hedge 2 -backend-rate 30 -backend-queue 16 -backend-disc ps -backend-offered 20 -backend-cancel
-users 300 -qps 500 -duration 2s -seed 1 -queue 100000
-users 200 -qps 400 -duration 2s -seed 2 -arrivals peruser -queue 100000
-users 200 -qps 800 -duration 2s -seed 5 -arrivals diurnal -diurnal-peak 6 -placement ring -shards 4 -autoscale -autoscale-interval 250ms -autoscale-rate 120 -queue 100000
-scenario flash-crowd -users 150
-scenario green-day -users 300
-scenario commuter -users 60
-scenario clone-storm -users 120
-scenario regional-outage -users 150
-scenario mixed-fleet -users 150
-scenario cmd/loadtest/testdata/mixed-hedge.json
-scenario cmd/loadtest/testdata/resize-events.json
-scenario cmd/loadtest/testdata/resize-events.json -users 150 -seed 4
-scenario $tmp/replay.json
EOF_CMDS
echo "clidiff: $n command lines, no differences against $ref"

for side in ref new; do
    "$tmp/$side-experiments" -list | awk '{print $1}' > "$tmp/$side.names"
done
grep -vxF -f "$tmp/new.names" "$tmp/ref.names" | sed 's/^/only in '"$ref"': /' || true
grep -vxF -f "$tmp/ref.names" "$tmp/new.names" | sed 's/^/only in the tree: /' || true
names=$(grep -xF -f "$tmp/ref.names" "$tmp/new.names" | paste -sd, -)
for side in ref new; do
    "$tmp/$side-experiments" -quick -run "$names" |
        grep -v -e '^  note: computed in ' -e '^total: ' > "$tmp/$side.txt"
done
if ! cmp "$tmp/ref.txt" "$tmp/new.txt" >&2; then
    echo "clidiff: experiments -quick output differs between $ref and the tree" >&2
    diff -u "$tmp/ref.txt" "$tmp/new.txt" | head -40 >&2
    exit 1
fi
echo "clidiff: experiments -quick -run $names: no differences against $ref"
