#!/usr/bin/env bash
# CI gate for the AutoExecutor workspace.
#
# Runs the tier-1 verification (release build + tests), the compiled-forest
# bit-identity suites again in a release build, lint/format gates
# over every workspace crate (including ae-serve), a rustdoc gate (no-deps
# docs must build with zero warnings), a quick criterion smoke over the two
# benches most sensitive to scheduler/training regressions, a serving smoke
# (short fixed-duration bench_serving run that must sustain qps > 0 with
# zero dropped requests), an inference smoke (compiled-forest output must
# be bit-identical to the interpreted forest and its batched throughput at
# least the interpreted baseline's), a QoS smoke (tagged open-loop phases: finite
# miss/shed rates, the Interactive deadline budget holding at moderate
# load, Interactive p99 < BestEffort p99 under overload, and no tenant
# starvation), a cross-family
# generalization smoke (train on the TPC-DS-like family, score the
# TPC-H-like and skew-adversarial ones, assert the accuracy matrix is
# complete and finite), and a fault smoke (zero-fault injection is
# bit-identical to the fault-unaware scheduler, >= 99% of queries complete
# via retry at moderate preemption, and the serving circuit breaker trips
# to the heuristic fallback and recovers), and an observability smoke
# (serving-trace render/parse roundtrip bit-identical, capture→replay
# determinism gate reports zero mismatches, and the measured overhead of
# attaching metrics + event tracing to the runtime stays under the smoke
# bound), and a fleet smoke (sharded serving under the shard-=-node
# measurement model: 4-shard aggregate qps at least 2x single-shard,
# finite per-shard p99 skew, zero dropped/errored requests, and a live
# work-steal drill), and a resilience smoke (one full shard failure
# lifecycle per fleet size: zero lost tickets, surviving goodput >= 60%
# of pre-kill through a 1-of-4 shard crash, and probationary recovery
# re-admitting the revived shard); every driver smoke also writes its JSON
# report to a temporary file, which the shared writer parses back, so a
# malformed report fails the gate; and a perfbench stage (the repository's
# benchmark package builds against the current crates, its own tests pass,
# and each workload runs once for one second, answering correctly with zero
# failed operations — so an API change cannot break the benchmark
# unnoticed). Pass --full to also run the full bench suite (slow).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> compiled-forest bit-identity suites in release (the kernel's conditional moves exist only in optimized builds)"
cargo test --release --offline -p ae-ml --test compiled_equivalence
cargo test --release --offline --test compiled_inference

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --quiet

echo "==> bench smoke (quick samples)"
simulation_smoke="$(cargo bench --offline -p ae-bench --bench bench_simulation -- --quick)"
echo "$simulation_smoke"
if ! grep -q '^bench: simulation/q94_sf100/static_1 ' <<<"$simulation_smoke"; then
    echo "bench_simulation smoke: no 'bench:' line for simulation/q94_sf100/static_1" >&2
    exit 1
fi
training_smoke="$(cargo bench --offline -p ae-bench --bench bench_training -- --quick random_forest)"
echo "$training_smoke"
if ! grep -q '^bench:' <<<"$training_smoke"; then
    echo "bench_training smoke: the filter matched no benchmark (no 'bench:' line)" >&2
    exit 1
fi

echo "==> inference smoke (compiled forest ≡ interpreter bit-for-bit; compiled batched throughput >= interpreted)"
cargo run --offline --release -p ae-bench --bin bench_inference -- --smoke --json "$(mktemp -t inference-smoke.XXXXXX.json)"

echo "==> serving smoke (fixed-duration run; asserts qps > 0, zero dropped)"
cargo run --offline --release -p ae-bench --bin bench_serving -- --smoke --json "$(mktemp -t serving-smoke.XXXXXX.json)"

echo "==> qos smoke (moderate + overload phases; asserts finite rates, Interactive budget holds at moderate load, Interactive p99 < BestEffort p99 under overload, no tenant starvation)"
cargo run --offline --release -p ae-bench --bin bench_qos -- --smoke --json "$(mktemp -t qos-smoke.XXXXXX.json)"

echo "==> generalization smoke (train tpcds, score tpch + skew; asserts a full finite matrix)"
cargo run --offline --release -p ae-bench --bin bench_generalization -- --smoke --json "$(mktemp -t generalization-smoke.XXXXXX.json)"

echo "==> fault smoke (zero-fault pin bit-identical, >= 99% completion via retry at moderate preemption, breaker trips to the heuristic fallback and recovers)"
cargo run --offline --release -p ae-bench --bin bench_faults -- --smoke --json "$(mktemp -t faults-smoke.XXXXXX.json)"

echo "==> obs smoke (trace roundtrip bit-identical, capture→replay determinism gate clean, obs overhead under bound)"
cargo run --offline --release -p ae-bench --bin bench_obs -- --smoke --json "$(mktemp -t obs-smoke.XXXXXX.json)"

echo "==> fleet smoke (4-shard aggregate qps >= 2x single-shard, finite per-shard p99 skew, zero dropped/errors)"
cargo run --offline --release -p ae-bench --bin bench_fleet -- --smoke --json "$(mktemp -t fleet-smoke.XXXXXX.json)"

echo "==> resilience smoke (1-of-4 shard kill: zero lost tickets, >= 60% goodput retained, probation re-admits)"
cargo run --offline --release -p ae-bench --bin bench_resilience -- --smoke --json "$(mktemp -t resilience-smoke.XXXXXX.json)"

echo "==> perfbench (benchmark builds and its tests pass; each workload runs once: correct, zero failed)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for workload in serve_blocking retrain; do
    result="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    if [[ "$result" != *'"correct": true'* || "$result" != *'"failed": 0,'* ]]; then
        echo "perfbench $workload: expected \"correct\": true and \"failed\": 0, got: $result" >&2
        exit 1
    fi
done

if [[ "${1:-}" == "--full" ]]; then
    echo "==> full bench suite"
    cargo bench --offline -p ae-bench
fi

echo "CI OK"
