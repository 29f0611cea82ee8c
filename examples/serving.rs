//! Serving-path demo: train a parameter model, publish it to the registry,
//! score an open-loop burst of queries through the concurrent batching
//! runtime (`ae-serve`), then ask for one query's tiered price menu —
//! the QoS layer's service levels quoted off its predicted curve.
//!
//! Run with: `cargo run --release --example serving`

use std::sync::Arc;
use std::time::Instant;

use ae_serve::{RuntimeConfig, ScoreRequest, ScoringRuntime, ServiceLevel};
use ae_workload::OpenLoop;
use autoexecutor::prelude::*;
use autoexecutor::ModelRegistry;

fn main() {
    // 1. Train the parameter model on a small workload.
    let generator = WorkloadGenerator::new(ScaleFactor::SF10);
    let training: Vec<_> = ["q1", "q5", "q12", "q42", "q69", "q94", "q23b", "q77"]
        .iter()
        .map(|n| generator.instance(n))
        .collect();
    let mut config = AutoExecutorConfig::default();
    config.forest.n_estimators = 25;
    config.training_run.noise_cv = 0.0;
    let (_, model) = train_from_workload(&training, &config).expect("training");

    // 2. Publish it: the registry hands out cheap Arc handles.
    let registry = Arc::new(ModelRegistry::in_memory());
    registry
        .register("demo", model.to_portable("demo").expect("export"))
        .expect("register");

    // 3. Spin up the serving runtime and replay a Poisson burst through it
    //    from several client threads.
    let runtime = Arc::new(ScoringRuntime::new(
        Arc::clone(&registry),
        "demo",
        RuntimeConfig::from_auto_executor(&config),
    ));
    runtime.warm().expect("warm-up");

    let suite = generator.suite();
    let schedule = Arc::new(OpenLoop::new(2000.0, 2000, 7).schedule(suite.len()));
    let plans: Arc<Vec<_>> = Arc::new(suite.iter().map(|q| q.plan.clone()).collect());
    let plan_for = |name: &str| {
        suite
            .iter()
            .find(|q| q.name == name)
            .map(|q| q.plan.clone())
            .expect("known suite query")
    };

    const CLIENTS: usize = 4;
    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let runtime = Arc::clone(&runtime);
            let schedule = Arc::clone(&schedule);
            let plans = Arc::clone(&plans);
            std::thread::spawn(move || {
                let mut served = 0usize;
                for arrival in schedule.iter().skip(c).step_by(CLIENTS) {
                    if let Some(wait) = arrival.at.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let outcome = runtime
                        .submit(ScoreRequest::from_plan(&plans[arrival.query_index]))
                        .expect("scoring");
                    assert!(outcome.request.executors >= 1);
                    served += 1;
                }
                served
            })
        })
        .collect();
    let served: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = start.elapsed();

    let stats = runtime.stats();
    println!(
        "served {served} requests in {:.2}s ({:.0} qps sustained)",
        elapsed.as_secs_f64(),
        served as f64 / elapsed.as_secs_f64()
    );
    println!(
        "inline {} / batched {} over {} batches (mean batch {:.2}); dropped {}, errors {}",
        stats.inline_scored,
        stats.batched(),
        stats.batches,
        stats.mean_batch_size(),
        stats.dropped,
        stats.errors
    );

    // 4. The QoS layer: the same runtime quotes tiered promises. Each
    //    service level buys a different point on the query's *predicted*
    //    curve, so the price multiplier is derived, not configured.
    println!("price menu for q42:");
    let menu_plan = plan_for("q42");
    for level in [
        ServiceLevel::Interactive,
        ServiceLevel::Standard,
        ServiceLevel::BestEffort,
    ] {
        let outcome = runtime
            .submit(ScoreRequest::from_plan(&menu_plan).with_level(level))
            .expect("menu scoring");
        let quote = outcome.quote().expect("predicted curve");
        println!(
            "  {:<12} n={:<3} predicted {:>6.1}s  price {:>7.1} executor-seconds ({:.2}x)",
            level.name(),
            quote.executors,
            quote.predicted_seconds,
            quote.price,
            quote.multiplier
        );
    }
}
