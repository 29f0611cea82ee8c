//! Forest-inference benchmark: the compiled representation
//! (`ae_ml::compiled::CompiledForest` — one flat SoA tree arena with leaves
//! as self-loops, a pooled leaf table, and one branchless kernel walking
//! blocks of 8 trees in lockstep) against the interpreted
//! `RandomForestRegressor` walk it replaced on every scoring path.
//!
//! Three measurements, plus a bit-equality check that always runs:
//!
//! * **single-row latency** — one `predict_into` call per measured op, the
//!   shape of the sequential `AutoExecutorRule` and the serving inline
//!   fast path;
//! * **batched throughput** — rows/second over a batch matrix that repeats
//!   the suite's rows in a cycle (a branchy walk's predictor can learn the
//!   repeating paths; the compiled kernel has no branches to learn):
//!   `predict_matrix` (the pre-PR `Vec<Vec<f64>>` serving walk, the
//!   baseline the speedup is quoted against), `predict_matrix_into` (the
//!   interpreted flat-output variant), and the compiled
//!   `predict_batch_into` kernel;
//! * **end-to-end serving qps** — a short closed-loop run through the
//!   `ae-serve` runtime (which now scores on the compiled kernel).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ae-bench --bin bench_inference                 # full run
//! cargo run --release -p ae-bench --bin bench_inference -- --batch-rows 4096
//! ```
//!
//! `--batch-rows` sizes the batch matrix (at most 1,024 under `--smoke`).
//! The smoke gate fails unless (a) compiled predictions are bit-identical to
//! the interpreter over the whole batch and (b) compiled batched throughput
//! is at least the interpreted baseline's.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ae_bench::harness::{self, Served};
use ae_ml::json::Value;
use ae_ml::matrix::FeatureMatrix;
use ae_serve::{RuntimeConfig, ScoreRequest};
use ae_workload::{ScaleFactor, WorkloadGenerator};

const COMMENT: &str = "Compiled-forest inference benchmark: CompiledForest (flat SoA tree \
    arena with leaves as self-loops, pooled leaf table, one branchless kernel walking blocks of \
    8 trees in lockstep) vs the interpreted RandomForestRegressor walk every scoring path used \
    before. 'interpreted predict_matrix' is the pre-compilation batched serving walk and is the \
    baseline the speedup is quoted against; the batch repeats the suite's rows in a cycle. \
    equivalence_bit_identical asserts compiled == interpreted bit-for-bit over the whole batch. \
    Regenerate with: cargo run --release -p ae-bench --bin bench_inference -- --json \
    BENCH_inference.json";

struct Args {
    smoke: bool,
    json: Option<String>,
    batch_rows: usize,
}

/// Runs `op` repeatedly for at least `budget`, returning (ops, elapsed).
fn measure(budget: Duration, mut op: impl FnMut()) -> (u64, Duration) {
    // Warm-up pass so neither side pays first-touch costs inside the window.
    op();
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        op();
        ops += 1;
        if start.elapsed() >= budget {
            return (ops, start.elapsed());
        }
    }
}

fn per_op_ns(ops: u64, elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e9 / ops.max(1) as f64
}

fn main() {
    let mut args = harness::args(&["--batch-rows N"], |flags| {
        Ok(Args {
            smoke: flags.smoke(),
            json: flags.json(),
            batch_rows: flags.get("--batch-rows", 4096)?,
        })
    });
    if args.smoke {
        args.batch_rows = args.batch_rows.min(1024);
    }
    let op_budget = if args.smoke {
        Duration::from_millis(120)
    } else {
        Duration::from_millis(800)
    };

    let served = Served::train(
        WorkloadGenerator::new(ScaleFactor::SF10).suite(),
        "tpcds suite",
        "inference",
    );
    let model = &served.model;
    let forest = model.forest();
    let compiled = model.compiled();
    let k = compiled.num_outputs();
    println!(
        "    forest: {} trees, {} nodes, {} pooled leaves, {} outputs",
        compiled.num_trees(),
        compiled.num_nodes(),
        compiled.num_leaves(),
        k
    );

    // Projected feature rows for every suite query (as generated, not
    // optimized), tiled to the batch size.
    let rows: Vec<Vec<f64>> = served
        .suite
        .iter()
        .map(|q| {
            model
                .feature_set()
                .project(&autoexecutor::featurize_plan(&q.plan))
                .expect("featurize_plan emits full-width rows")
        })
        .collect();
    let mut matrix = FeatureMatrix::with_capacity(compiled.num_features(), args.batch_rows);
    for i in 0..args.batch_rows {
        matrix.push_row(&rows[i % rows.len()]).expect("batch row");
    }

    // --- Bit-equality gate (always on): compiled ≡ interpreted. ---
    let mut compiled_flat = vec![0.0; matrix.len() * k];
    compiled
        .predict_batch_into(&matrix, &mut compiled_flat)
        .expect("compiled batch");
    let mut interpreted_flat = Vec::new();
    forest
        .predict_matrix_into(&matrix, &mut interpreted_flat)
        .expect("interpreted batch");
    let equal_bits = compiled_flat
        .iter()
        .zip(&interpreted_flat)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!(
        "==> equivalence: compiled output {} interpreted over {} rows x {k} outputs",
        if equal_bits {
            "bit-identical to"
        } else {
            "DIVERGED from"
        },
        matrix.len()
    );

    // --- Single-row latency. ---
    let mut out = vec![0.0; k];
    let mut cursor = 0usize;
    let (ops, elapsed) = measure(op_budget, || {
        let row = &rows[cursor % rows.len()];
        cursor += 1;
        forest.predict_into(black_box(row), &mut out).unwrap();
        black_box(&out);
    });
    let interp_row_ns = per_op_ns(ops, elapsed);
    cursor = 0;
    let (ops, elapsed) = measure(op_budget, || {
        let row = &rows[cursor % rows.len()];
        cursor += 1;
        compiled.predict_into(black_box(row), &mut out).unwrap();
        black_box(&out);
    });
    let compiled_row_ns = per_op_ns(ops, elapsed);
    println!(
        "==> single-row latency: interpreted {interp_row_ns:>8.0} ns   compiled {compiled_row_ns:>8.0} ns   ({:.2}x)",
        interp_row_ns / compiled_row_ns.max(1e-9)
    );

    // --- Batched throughput (rows/second over the tiled matrix). ---
    let rows_per_batch = matrix.len() as f64;
    let (ops, elapsed) = measure(op_budget, || {
        black_box(forest.predict_matrix(black_box(&matrix)).unwrap());
    });
    let interp_vecvec_rps = rows_per_batch * ops as f64 / elapsed.as_secs_f64();
    let (ops, elapsed) = measure(op_budget, || {
        forest
            .predict_matrix_into(black_box(&matrix), &mut interpreted_flat)
            .unwrap();
        black_box(&interpreted_flat);
    });
    let interp_flat_rps = rows_per_batch * ops as f64 / elapsed.as_secs_f64();
    let (ops, elapsed) = measure(op_budget, || {
        compiled
            .predict_batch_into(black_box(&matrix), &mut compiled_flat)
            .unwrap();
        black_box(&compiled_flat);
    });
    let compiled_rps = rows_per_batch * ops as f64 / elapsed.as_secs_f64();
    let batch_speedup = compiled_rps / interp_vecvec_rps.max(1e-9);
    println!("==> batched throughput ({} rows/batch):", matrix.len());
    println!("    interpreted predict_matrix      {interp_vecvec_rps:>12.0} rows/s   (pre-PR serving walk — baseline)");
    println!("    interpreted predict_matrix_into {interp_flat_rps:>12.0} rows/s   (flat output, no per-row alloc)");
    println!(
        "    compiled predict_batch_into     {compiled_rps:>12.0} rows/s   ({batch_speedup:.2}x vs baseline)"
    );

    // --- End-to-end serving qps (closed loop through ae-serve). ---
    let runtime = served.runtime(RuntimeConfig::from_auto_executor(&served.config));
    let threads = 4;
    let serve_duration = if args.smoke {
        Duration::from_millis(300)
    } else {
        Duration::from_secs(2)
    };
    let (served_requests, serve_elapsed) = served.closed_loop(threads, serve_duration, |plan| {
        runtime
            .submit(ScoreRequest::from_plan(plan))
            .expect("serving score");
    });
    let serving_qps = served_requests as f64 / serve_elapsed.as_secs_f64();
    let stats = runtime.stats();
    println!(
        "==> serving (compiled kernel, closed loop, {threads} threads): {serving_qps:.0} qps ({served_requests} requests, {} inline / {} batched, errors {})",
        stats.inline_scored,
        stats.batched(),
        stats.errors
    );

    harness::write_report(
        args.json.as_deref(),
        COMMENT,
        [
            (
                "forest",
                Value::object([
                    ("trees", compiled.num_trees().into()),
                    ("nodes", compiled.num_nodes().into()),
                    ("pooled_leaves", compiled.num_leaves().into()),
                    ("outputs", k.into()),
                ]),
            ),
            ("equivalence_bit_identical", equal_bits.into()),
            (
                "single_row",
                Value::object([
                    ("interpreted_ns", interp_row_ns.into()),
                    ("compiled_ns", compiled_row_ns.into()),
                    (
                        "speedup",
                        (interp_row_ns / compiled_row_ns.max(1e-9)).into(),
                    ),
                ]),
            ),
            (
                "batched",
                Value::object([
                    ("rows_per_batch", matrix.len().into()),
                    ("interpreted_rows_per_s", interp_vecvec_rps.into()),
                    ("interpreted_flat_rows_per_s", interp_flat_rps.into()),
                    ("compiled_rows_per_s", compiled_rps.into()),
                    ("speedup_vs_interpreted", batch_speedup.into()),
                ]),
            ),
            (
                "serving",
                Value::object([
                    ("closed_loop_qps", serving_qps.into()),
                    ("client_threads", threads.into()),
                    ("requests", served_requests.into()),
                ]),
            ),
        ],
    );

    if args.smoke {
        let mut failures = Vec::new();
        if !equal_bits {
            failures.push("compiled output is not bit-identical to the interpreter".to_string());
        }
        if compiled_rps < interp_vecvec_rps {
            failures.push(format!(
                "compiled batched throughput ({compiled_rps:.0} rows/s) below the interpreted \
                 baseline ({interp_vecvec_rps:.0} rows/s)"
            ));
        }
        if stats.errors != 0 {
            failures.push(format!("{} serving errors", stats.errors));
        }
        harness::gate(
            "inference smoke",
            &failures,
            &format!(
                "bit-identical, compiled {batch_speedup:.2}x interpreted, zero serving errors"
            ),
        );
    }
}
