#!/usr/bin/env bash
# CI gate for the AutoExecutor workspace. Each stage announces what it
# checks on its `==>` line. Two things the stages do not show:
#
# * every bench smoke writes its JSON report into one temporary directory
#   (removed on exit), and the shared writer parses each report back, so a
#   malformed report fails the gate;
# * the workspace build and the perfbench commands run with --locked: every
#   crate perfbench links is a path dependency recorded in
#   perfbench/Cargo.lock, so a change that adds or drops a dependency of one
#   of them must update that lock (and Cargo.lock) in the same commit
#   instead of leaving cargo to rewrite it when the benchmark runs.
set -euo pipefail
cd "$(dirname "$0")/.."

reports="$(mktemp -d -t ci-reports.XXXXXX)"
trap 'rm -rf "$reports"' EXIT

echo "==> cargo build --release --locked"
cargo build --release --offline --locked

echo "==> cargo test -q"
cargo test -q --offline

echo "==> compiled-forest bit-identity suites in release (the kernel's conditional moves exist only in optimized builds)"
cargo test --release --offline -p ae-ml --test compiled_equivalence
cargo test --release --offline --test compiled_inference

echo "==> simulator pins in release (tier-1 runs them only in debug; the event heap's branch-free compares and the static tick fold compile differently when optimized)"
cargo test --release --offline -p ae-engine --test scheduler_regression --test fault_determinism
cargo test --release --offline -p autoexecutor --test training_regression

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --quiet

echo "==> inference smoke (compiled forest ≡ interpreter bit-for-bit; compiled batched throughput >= interpreted)"
cargo run --offline --release -p ae-bench --bin bench_inference -- --smoke --json "$reports/inference.json"

echo "==> serving smoke (fixed-duration run; asserts qps > 0, zero dropped)"
cargo run --offline --release -p ae-bench --bin bench_serving -- --smoke --json "$reports/serving.json"

echo "==> qos smoke (moderate + overload phases; asserts finite rates, Interactive budget holds at moderate load, Interactive p99 < BestEffort p99 under overload, no tenant starvation)"
cargo run --offline --release -p ae-bench --bin bench_qos -- --smoke --json "$reports/qos.json"

echo "==> generalization smoke (train tpcds, score tpch + skew; asserts a full finite matrix)"
cargo run --offline --release -p ae-bench --bin bench_generalization -- --smoke --json "$reports/generalization.json"

echo "==> fault smoke (zero-fault pin bit-identical, >= 99% completion via retry at moderate preemption, breaker trips to the heuristic fallback and recovers)"
cargo run --offline --release -p ae-bench --bin bench_faults -- --smoke --json "$reports/faults.json"

echo "==> obs smoke (trace roundtrip bit-identical, capture→replay determinism gate clean, obs overhead under bound)"
cargo run --offline --release -p ae-bench --bin bench_obs -- --smoke --json "$reports/obs.json"

echo "==> fleet smoke (4-shard aggregate qps >= 2x single-shard, finite per-shard p99 skew, finite load skew >= 1, zero dropped/errors)"
cargo run --offline --release -p ae-bench --bin bench_fleet -- --smoke --json "$reports/fleet.json"

echo "==> resilience smoke (1-of-4 shard kill: zero lost tickets, >= 60% goodput retained, probation re-admits)"
cargo run --offline --release -p ae-bench --bin bench_resilience -- --smoke --json "$reports/resilience.json"

echo "==> paper figures (every experiment runs to completion; its output is not compared yet)"
cargo run --release --offline --locked -p ae-bench --bin experiments -- all >"$reports/experiments.txt"

echo "==> perfbench (benchmark builds and its tests pass; each workload runs untraced and traced: correct, zero failed, per-layer metrics above 0)"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml
# The per-layer metrics each workload measures when traced: the offline
# pipeline's on retrain, the scoring path's on serve_blocking.
declare -A layer_metrics=(
    [retrain]="engine.simulate_us sparklens.estimate_us ppm.fit_us ml.forest_fit_ms eval.collect_s workload.suite_ms"
    [serve_blocking]="core.featurize_us ml.predict_row_us core.score_one_us ppm.select_us"
)
for workload in serve_blocking retrain; do
    for trace in 0 1; do
        result="$(cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)"
        if [[ "$result" != *'"correct": true'* || "$result" != *'"failed": 0,'* ]]; then
            echo "perfbench $workload --trace $trace: expected \"correct\": true and \"failed\": 0, got: $result" >&2
            exit 1
        fi
        ((trace)) || continue
        for metric in ${layer_metrics[$workload]}; do
            value="$(grep -o "\"${metric//./\\.}\": {\"value\": [^,}]*" <<<"$result" | sed 's/.*: //' || true)"
            if ! [[ "$value" =~ ^[0-9]+(\.[0-9]+)?(e-?[0-9]+)?$ ]] ||
                ! awk -v v="$value" 'BEGIN { exit !(v > 0) }'; then
                echo "perfbench $workload --trace 1: $metric should read finite and above 0, got: ${value:-no such metric}" >&2
                exit 1
            fi
        done
    done
done

echo "CI OK"
