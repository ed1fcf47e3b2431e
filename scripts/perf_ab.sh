#!/usr/bin/env bash
# A/B run of the end-to-end benchmark: a base revision against the
# working tree, in alternating pairs.
#
#   scripts/perf_ab.sh <base-rev> <workloads> <pairs> <seconds> <seed>
#
# <workloads> is one workload, a comma-separated list of them, or `all`
# (blk_rw, fabric_fanout, clone_churn and migrate_dirty).
#
# Exports <base-rev> (git archive) and the working tree (tracked and
# untracked, not ignored, files) into a temporary directory, builds
# perfbench in each, then, for each workload in turn, runs the two
# binaries <pairs> times, one after the other, at --trace 0. Pair 1 runs
# the base first, pair 2 the change first, and so on, so neither side
# always runs in the other's wake.
#
# After a workload's pairs, runs each side once more at --trace 1 and
# keeps its count metrics (allocations and calls per call, op or set-up,
# and event counts), op_samples aside: that one counts latency samples,
# so it follows the machine's speed.
#
# Prints each run's four end-to-end metrics, then for each workload and
# pair the change/base ratio of each metric, and for each metric the
# number of pairs the change won (higher ops_per_s, lower everything
# else) and the median ratio, and then every count metric whose traced
# value differs between base and change. A run that is not correct or
# has a failed operation stops the script. Nothing is written in the
# repository; the temporary directory is removed on exit.
set -euo pipefail

if [[ $# -ne 5 ]]; then
    echo "usage: $0 <base-rev> <workload[,workload...]|all> <pairs> <seconds> <seed>" >&2
    exit 2
fi
base_rev="$1" pairs="$3" seconds="$4" seed="$5"
if [[ "$2" == all ]]; then
    workloads=(blk_rw fabric_fanout clone_churn migrate_dirty)
else
    IFS=, read -ra workloads <<<"$2"
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base" "$tmp/change"
git -C "$root" archive "$base_rev" | tar -x -C "$tmp/base"
git -C "$root" ls-files -z --cached --others --exclude-standard |
    (cd "$root" && tar --null --ignore-failed-read -T - -cf - 2>/dev/null) |
    tar -x -C "$tmp/change"
for side in base change; do
    echo "building perfbench ($side)" >&2
    cargo build -q --release --offline --manifest-path "$tmp/$side/perfbench/Cargo.toml"
done

metrics=(ops_per_s op_p50_us setup_s peak_heap_mib)

# Runs one side of $workload at trace level $3 into $out; stops the
# script unless the run is correct with no failed operation.
bench() {
    local label="$1" side="$2" trace="$3" last
    out="$("$tmp/$side/perfbench/target/release/perfbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")"
    last="$(tail -n 1 <<<"$out")"
    if [[ "$last" != *'"correct":true'* || "$last" != *'"failed":0,'* ]]; then
        echo "$workload $label $side: $last" >&2
        exit 1
    fi
}

# Runs one side of $workload and appends "<pair> <side> <four metric
# values>" to $results.
run() {
    local pair="$1" side="$2" out
    bench "pair $pair" "$side" 0
    local values=()
    for m in "${metrics[@]}"; do
        values+=("$(awk -v k="$workload/$m" '$1 == k { print $2 }' <<<"$out")")
    done
    echo "$pair $side ${values[*]}" >>"$results"
    printf '%s pair %s %-6s' "$workload" "$pair" "$side"
    for i in "${!metrics[@]}"; do
        printf ' %s=%s' "${metrics[$i]}" "${values[$i]}"
    done
    printf '\n'
}

# Runs each side of $workload once at --trace 1 and writes its count
# metrics, "<metric> <value>" a line, to $counts.<side>.
trace_counts() {
    local side out
    for side in base change; do
        bench traced "$side" 1
        awk -v w="$workload/" '$3 == "count" && $1 != w "op_samples" {
            print substr($1, length(w) + 1), $2
        }' <<<"$out" >"$counts.$side"
    done
}

# Prints the per-pair ratios and per-metric summary of $results, then the
# count metrics of $counts that differ.
summarize() {
    echo "change/base per pair ($workload, seed $seed, ${seconds}s runs):"
    awk -v names="${metrics[*]}" '
        BEGIN { n = split(names, name, " ") }
        { for (i = 1; i <= n; i++) v[$1, $2, i] = $(i + 2); if ($1 > pairs) pairs = $1 }
        END {
            for (p = 1; p <= pairs; p++) {
                line = "pair " p
                for (i = 1; i <= n; i++) {
                    r = v[p, "change", i] / v[p, "base", i]
                    ratio[i, p] = r
                    line = line sprintf(" %s=%.4f", name[i], r)
                    if (name[i] == "ops_per_s" ? r > 1 : r < 1) won[i]++
                }
                print line
            }
            for (i = 1; i <= n; i++) {
                for (p = 1; p <= pairs; p++) s[p] = ratio[i, p]
                # Insertion sort: a handful of pairs.
                for (a = 2; a <= pairs; a++)
                    for (b = a; b > 1 && s[b - 1] > s[b]; b--) { t = s[b]; s[b] = s[b - 1]; s[b - 1] = t }
                med = pairs % 2 ? s[(pairs + 1) / 2] : (s[pairs / 2] + s[pairs / 2 + 1]) / 2
                printf "%s: change won %d/%d pairs, median ratio %.4f\n", name[i], won[i], pairs, med
            }
        }' "$results"
    echo "count metrics that differ ($workload, seed $seed, one ${seconds}s run per side at --trace 1):"
    awk 'NR == FNR { base[$1] = $2; next }
        base[$1] != $2 { printf "  %s %s -> %s\n", $1, base[$1], $2; n++ }
        END { if (!n) print "  none" }' "$counts.base" "$counts.change"
}

for workload in "${workloads[@]}"; do
    results="$tmp/results.$workload" counts="$tmp/counts.$workload"
    for ((pair = 1; pair <= pairs; pair++)); do
        if ((pair % 2)); then
            run "$pair" base
            run "$pair" change
        else
            run "$pair" change
            run "$pair" base
        fi
    done
    trace_counts
done
for workload in "${workloads[@]}"; do
    results="$tmp/results.$workload" counts="$tmp/counts.$workload"
    summarize
done
