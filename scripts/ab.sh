#!/usr/bin/env bash
# Alternating-pairs A/B of one perfbench end-to-end metric: this checkout's
# working tree (the change) against a parent revision.
#
#   scripts/ab.sh <parent-rev> <workload> <metric>
#
# Exports <parent-rev> with `git archive` into a temporary directory, so the
# parent builds from its committed files into a target directory of its own,
# and builds perfbench in both trees with --locked, so a stale
# perfbench/Cargo.lock fails the build instead of being rewritten. It then
# runs 10 pairs of runs with `--trace 0`, each as long as BENCHMARK.json's
# `run_seconds`. Both runs of a pair take the same seed, fresh for every
# pair and printed with it; odd pairs run the parent first, even pairs the
# change. Every run must answer correctly with zero failed operations. It
# prints every pair, both medians, the parent's interquartile range and how
# many pairs the change won, on the metric's better side as BENCHMARK.json
# declares it. The temporary directory is removed on exit; nothing under
# perfbench/ changes apart from its ignored build output. Needs jq.
set -euo pipefail
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

[[ $# -eq 3 ]] || { echo "usage: scripts/ab.sh <parent-rev> <workload> <metric>" >&2; exit 2; }
parent_rev=$1 workload=$2 metric=$3 pairs=10
command -v jq >/dev/null || { echo "ab.sh: jq not found" >&2; exit 2; }
seconds="$(jq -er .run_seconds BENCHMARK.json)"
better="$(jq -r --arg m "$metric" '.end_to_end[] | select(.name == $m) | .better' BENCHMARK.json)"
[[ -n $better ]] || { echo "ab.sh: '$metric' is not an end-to-end metric of BENCHMARK.json" >&2; exit 2; }
rev="$(git rev-parse --verify --quiet "$parent_rev^{commit}")" ||
    { echo "ab.sh: '$parent_rev' is not a revision" >&2; exit 2; }

parent="$(mktemp -d -t ab-parent.XXXXXX)"
trap 'rm -rf "$parent"' EXIT
git archive "$rev" | tar -x -C "$parent"

# Each side builds into its own target directory and runs from its own root.
build() {
    echo "==> building perfbench in $1" >&2
    CARGO_TARGET_DIR="$1/perfbench/target" \
        cargo build --release --offline --locked --quiet --manifest-path "$1/perfbench/Cargo.toml"
}
build "$parent"
build "$PWD"

run() {
    local root=$1 seed=$2 line
    line="$(cd "$root" && perfbench/target/release/perfbench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)" &&
        jq -er --arg m "$metric" \
            'if .correct and .failed == 0 then .metrics[$m].value else empty end' <<<"$line" ||
        { echo "ab.sh: $root, seed $seed: run failed: ${line:-no output}" >&2; exit 1; }
}

# Quartiles (linear interpolation between order statistics) of the numbers
# on standard input: "q1 median q3".
quartiles() {
    sort -g | awk '{ v[NR - 1] = $1 }
        END {
            for (i = 1; i <= 3; i++) {
                h = (NR - 1) * i / 4; lo = int(h); hi = lo + 1 < NR ? lo + 1 : lo
                printf "%.9g%s", v[lo] + (h - lo) * (v[hi] - v[lo]), i < 3 ? " " : "\n"
            }
        }'
}

base_seed="$(date +%s)"
echo "A/B $workload $metric ($better is better): parent $rev vs working tree," \
    "$pairs pairs of ${seconds}-s runs, seeds $base_seed + pair"
parent_values=() change_values=() wins=0
for ((pair = 1; pair <= pairs; pair++)); do
    seed=$((base_seed + pair))
    if ((pair % 2)); then
        first=parent
        p="$(run "$parent" "$seed")"
        c="$(run "$PWD" "$seed")"
    else
        first=change
        c="$(run "$PWD" "$seed")"
        p="$(run "$parent" "$seed")"
    fi
    parent_values+=("$p") change_values+=("$c")
    won="$(awk -v p="$p" -v c="$c" -v b="$better" \
        'BEGIN { print ((b == "lower" && c < p) || (b == "higher" && c > p)) ? 1 : 0 }')"
    wins=$((wins + won))
    printf 'pair %2d  seed %s  first %-6s  parent %-12s  change %-12s  %s\n' \
        "$pair" "$seed" "$first" "$p" "$c" "$( ((won)) && echo win || echo loss)"
done

read -r pq1 pmed pq3 < <(printf '%s\n' "${parent_values[@]}" | quartiles)
read -r cq1 cmed cq3 < <(printf '%s\n' "${change_values[@]}" | quartiles)
awk -v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cq1="$cq1" -v cmed="$cmed" -v cq3="$cq3" \
    -v wins="$wins" -v pairs="$pairs" 'BEGIN {
        printf "parent  median %.6g  IQR %.6g (%.6g .. %.6g)\n", pmed, pq3 - pq1, pq1, pq3
        printf "change  median %.6g  IQR %.6g (%.6g .. %.6g)  %+.1f %%\n", cmed, cq3 - cq1, cq1, cq3,
            100 * (cmed - pmed) / pmed
        gap = cmed > pmed ? cmed - pmed : pmed - cmed
        printf "change won %d of %d pairs; medians %.6g apart, parent IQR %.6g\n", wins, pairs,
            gap, pq3 - pq1
    }'
