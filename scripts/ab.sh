#!/usr/bin/env bash
# Alternating-pairs A/B of perfbench's end-to-end metrics: a change against
# a parent revision. The change is this checkout's working tree, or
# <change-rev> when given.
#
#   scripts/ab.sh <parent-rev> [<change-rev>] <workload> <metric>
#
# Exports <parent-rev> (and <change-rev>, when given) with `git archive` into
# a temporary directory, so each revision builds from its committed files
# into a target directory of its own, and builds perfbench in both trees
# with --locked, so a stale perfbench/Cargo.lock fails the build instead of
# being rewritten. It then
# runs 10 pairs of runs with `--trace 0`, each as long as BENCHMARK.json's
# `run_seconds`. Both runs of a pair take the same seed, fresh for every
# pair and printed with it; odd pairs run the parent first, even pairs the
# change. Every run must answer correctly with zero failed operations.
#
# It prints every pair of <metric>, the claimed metric, with the host steal
# each run saw (perfbench's `host.steal_s`, CPU seconds the hypervisor gave
# to other guests during the run), and then one row per end-to-end metric
# of BENCHMARK.json, all read from the same pairs: both medians, the change
# in %, the median over pairs of change/parent, the parent's interquartile
# range, the pairs the change won on the metric's better side, and a
# verdict:
#   gain          at least 9 of 10 wins, the change's median on the better
#                 side and further from the parent's than the parent's IQR;
#   worse         the change's median is past the metric's `bound`;
#   within bound  otherwise.
# cv_err, transfer_err, auc_saving_da and speedup_da are deterministic per
# seed, so both runs of every pair must print the same value ("same"
# column; goodput is not checked: a host stall can miss a deadline). The
# last line is one JSON object holding the same fields and every run's
# steal. The script exits 1 when a checked metric differs. The temporary
# directory is removed on exit; nothing under perfbench/ changes apart from
# its ignored build output. Needs jq.
set -euo pipefail
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

usage="usage: scripts/ab.sh <parent-rev> [<change-rev>] <workload> <metric>"
case $# in
    3) parent_rev=$1 change_rev="" workload=$2 metric=$3 ;;
    4) parent_rev=$1 change_rev=$2 workload=$3 metric=$4 ;;
    *) echo "$usage" >&2; exit 2 ;;
esac
pairs=10
command -v jq >/dev/null || { echo "ab.sh: jq not found" >&2; exit 2; }
seconds="$(jq -er .run_seconds BENCHMARK.json)"
better="$(jq -r --arg m "$metric" '.end_to_end[] | select(.name == $m) | .better' BENCHMARK.json)"
[[ -n $better ]] || { echo "ab.sh: '$metric' is not an end-to-end metric of BENCHMARK.json" >&2; exit 2; }
commit() {
    git rev-parse --verify --quiet "$1^{commit}" ||
        { echo "ab.sh: '$1' is not a revision" >&2; exit 2; }
}
rev="$(commit "$parent_rev")"
[[ -z $change_rev ]] || change_commit="$(commit "$change_rev")"

tmp="$(mktemp -d -t ab.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
parent="$tmp/parent"
mkdir "$parent"
git archive "$rev" | tar -x -C "$parent"
change="$PWD" change_name="working tree"
if [[ -n $change_rev ]]; then
    change="$tmp/change" change_name="$change_commit"
    mkdir "$change"
    git archive "$change_commit" | tar -x -C "$change"
fi

# Each side builds into its own target directory and runs from its own root.
build() {
    echo "==> building perfbench in $1" >&2
    CARGO_TARGET_DIR="$1/perfbench/target" \
        cargo build --release --offline --locked --quiet --manifest-path "$1/perfbench/Cargo.toml"
}
build "$parent"
build "$change"

# One run's JSON report (its last stdout line) with the run's host steal
# (`host.steal_s` of the diagnostics line before it) added as `steal_s`,
# appended to the file $3.
run() {
    local root=$1 seed=$2 lines
    lines="$(cd "$root" && perfbench/target/release/perfbench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 2)" &&
        jq -cse '.[0].host.steal_s as $steal | .[1]
            | select(.correct and .failed == 0) | .steal_s = $steal' <<<"$lines" >>"$3" ||
        { echo "ab.sh: $root, seed $seed: run failed: ${lines:-no output}" >&2; exit 1; }
}

base_seed="$(date +%s)"
echo "A/B $workload $metric ($better is better): parent $rev vs $change_name," \
    "$pairs pairs of ${seconds}-s runs, seeds $base_seed + pair"
for ((pair = 1; pair <= pairs; pair++)); do
    seed=$((base_seed + pair))
    if ((pair % 2)); then
        first=parent
        run "$parent" "$seed" "$tmp/parent.jsonl"
        run "$change" "$seed" "$tmp/change.jsonl"
    else
        first=change
        run "$change" "$seed" "$tmp/change.jsonl"
        run "$parent" "$seed" "$tmp/parent.jsonl"
    fi
    jq -nr --arg m "$metric" --arg b "$better" --arg pair "$pair" --arg seed "$seed" \
        --arg first "$first" --slurpfile p "$tmp/parent.jsonl" --slurpfile c "$tmp/change.jsonl" \
        '$p[-1].metrics[$m].value as $pv | $c[-1].metrics[$m].value as $cv
        | def steal: .steal_s * 100 | round / 100;
        "pair \($pair)  seed \($seed)  first \($first)  parent \($pv)  change \($cv)  "
          + (if ($b == "lower" and $cv < $pv) or ($b == "higher" and $cv > $pv)
             then "win " else "loss" end)
          + "  steal parent \($p[-1] | steal) s  change \($c[-1] | steal) s"'
done

# Every end-to-end metric over the same pairs. Quartiles interpolate
# linearly between order statistics.
report="$(jq -nc --slurpfile bench BENCHMARK.json \
    --slurpfile p "$tmp/parent.jsonl" --slurpfile c "$tmp/change.jsonl" \
    --arg workload "$workload" --arg rev "$rev" --arg claimed "$metric" \
    --argjson seconds "$seconds" --argjson base_seed "$base_seed" '
    def quartiles: sort as $v | ($v | length) as $n
        | [1, 2, 3] | map(($n - 1) * . / 4 | floor as $lo
            | (if $lo + 1 < $n then $lo + 1 else $lo end) as $hi
            | $v[$lo] + (. - $lo) * ($v[$hi] - $v[$lo]));
    ($p | length) as $pairs
    | {workload: $workload, parent: $rev, pairs: $pairs, run_seconds: $seconds,
       seeds: [range(1; $pairs + 1) | . + $base_seed], claimed: $claimed,
       steal_s: {parent: [$p[].steal_s * 1000 | round / 1000],
                 change: [$c[].steal_s * 1000 | round / 1000]},
       metrics: [$bench[0].end_to_end[] | .name as $m | .better as $better
        | [$p[].metrics[$m].value] as $pv | [$c[].metrics[$m].value] as $cv
        | ($pv | quartiles) as [$pq1, $pmed, $pq3] | ($cv | quartiles)[1] as $cmed
        # Pairs whose parent reads 0 have no ratio.
        | [range($pairs) | select($pv[.] != 0) | $cv[.] / $pv[.]] as $ratios
        # Positive when the change is on the better side.
        | (if $better == "lower" then -1 else 1 end) as $sign
        | (if $pmed == 0 then null else ($cmed - $pmed) / ($pmed | fabs) end) as $change
        | [range($pairs) | select(($cv[.] - $pv[.]) * $sign > 0)] as $won
        | {name: $m, better: $better, bound,
           parent_median: $pmed, change_median: $cmed,
           change_pct: (if $change == null then null else 100 * $change end),
           ratio_median: (if $ratios == [] then null else ($ratios | quartiles)[1] end),
           parent_iqr: ($pq3 - $pq1), wins: ($won | length),
           same: (if $m | IN("cv_err", "transfer_err", "auc_saving_da", "speedup_da")
                  then $pv == $cv else null end),
           verdict: (if ($won | length) * 10 >= $pairs * 9 and ($cmed - $pmed) * $sign > 0
                        and ($cmed - $pmed | fabs) > $pq3 - $pq1 then "gain"
                     elif (if $change == null then ($cmed - $pmed) * $sign < 0
                           else -$sign * $change > .bound end) then "worse"
                     else "within bound" end)}]}')"

jq -r '.pairs as $n | .metrics[]
    | [.name, .parent_median, .change_median,
       (if .change_pct == null then "n/a" else (.change_pct * 10 | round / 10 | tostring) + " %" end),
       (if .ratio_median == null then "n/a" else (.ratio_median * 10000 | round / 10000 | tostring) end),
       .parent_iqr, "\(.wins)/\($n)",
       (if .same == null then "-" elif .same then "yes" else "NO" end), .verdict]
    | @tsv' <<<"$report" |
    awk -F '\t' 'BEGIN {
            printf "%-15s %12s %12s %9s %8s %12s %6s %5s  %s\n", "metric", "parent", "change",
                "delta", "ratio", "parent IQR", "wins", "same", "verdict"
        }
        { printf "%-15s %12.6g %12.6g %9s %8s %12.6g %6s %5s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9 }'
echo "$report"
jq -e '[.metrics[] | select(.same == false)] | length == 0' <<<"$report" >/dev/null ||
    { echo "ab.sh: a deterministic metric differs between parent and change" >&2; exit 1; }
