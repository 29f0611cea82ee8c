//! `perfbench`: the end-to-end and per-layer benchmark of the AutoExecutor
//! reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_blocking|retrain> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives one layer stack from outside through public APIs
//! (see `perfbench/README.md` for why each was chosen and how every metric
//! is defined). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
//! run. The line before it carries host diagnostics and the outcome counts.

mod measure;
mod phase;
mod requests;
mod retrain;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use measure::{HostSample, JsonObject};

/// End-to-end metrics and their units, in report order.
pub const END_TO_END: [(&str, &str); 13] = [
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("cpu_us_per_req", "us"),
    ("goodput", "fraction"),
    ("train_s", "s"),
    ("whatif_s", "s"),
    ("cv_err", "ratio"),
    ("transfer_err", "ratio"),
    ("auc_saving_da", "fraction"),
    ("speedup_da", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run and their units, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("serve.submit_us", "us"),
    ("serve.inline_frac", "fraction"),
    ("serve.runtime_latency_us", "us"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "rows"),
    ("serve.submit_detached_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.queued.runtime_latency_us", "us"),
    ("serve.queued.batches", "count"),
    ("serve.queued.mean_batch", "rows"),
    ("serve.dropped", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.price_us", "us"),
    ("serve.deadline_misses.interactive", "count"),
    ("serve.deadline_misses.standard", "count"),
    ("serve.deadline_misses.best_effort", "count"),
    ("core.featurize_us", "us"),
    ("core.score_one_us", "us"),
    ("core.score_batch_row_us", "us"),
    ("ml.predict_row_us", "us"),
    ("ml.predict_batch_row_us", "us"),
    ("ppm.select_us", "us"),
    ("ml.forest_fit_ms", "ms"),
    ("ml.forest_fits", "count"),
    ("engine.simulate_us", "us"),
    ("engine.simulations", "count"),
    ("sparklens.estimate_us", "us"),
    ("ppm.fit_us", "us"),
    ("eval.collect_s", "s"),
    ("eval.cv_s", "s"),
    ("eval.actuals_s", "s"),
    ("eval.genmatrix_s", "s"),
    ("eval.alloc_s", "s"),
    ("workload.suite_ms", "ms"),
    ("trace.overhead.qps", "fraction"),
    ("trace.overhead.p50_us", "fraction"),
    ("trace.overhead.p90_us", "fraction"),
    ("trace.overhead.cpu_us_per_req", "fraction"),
    ("trace.overhead.goodput", "fraction"),
    ("trace.overhead.train_s", "fraction"),
    ("trace.overhead.whatif_s", "fraction"),
    ("trace.spans", "count"),
];

/// Outcome counts of one run. `ok` counts correct answers delivered on
/// time; every other operation is either failed or late. A late answer is
/// correct, so it lowers goodput without counting as a failed operation:
/// on a 2-vCPU VM a host stall can delay a few queued answers past their
/// deadline, and the failure share must not measure the host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub attempted: u64,
    pub ok: u64,
    pub errors: u64,
    pub dropped: u64,
    pub shed: u64,
    pub deadline_misses: u64,
    pub mismatches: u64,
}

impl Outcomes {
    /// Operations that returned no correct answer.
    pub fn failed(&self) -> u64 {
        self.errors + self.dropped + self.shed + self.mismatches
    }

    /// Adds another set of counts.
    pub fn add(&mut self, other: &Outcomes) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.errors += other.errors;
        self.dropped += other.dropped;
        self.shed += other.shed;
        self.deadline_misses += other.deadline_misses;
        self.mismatches += other.mismatches;
    }

    fn to_json(self) -> String {
        let mut json = JsonObject::new();
        json.int("attempted", self.attempted);
        json.int("ok", self.ok);
        json.int("failed", self.failed());
        json.int("errors", self.errors);
        json.int("dropped", self.dropped);
        json.int("shed", self.shed);
        json.int("deadline_misses", self.deadline_misses);
        json.int("mismatches", self.mismatches);
        json.finish()
    }
}

/// What a workload run hands back for reporting.
#[derive(Debug, Default)]
pub struct Report {
    pub outcomes: Outcomes,
    /// Output checks that failed, one message each (empty when correct).
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Share of the measured requests whose latency the percentiles were
    /// computed from (serving only; below 1 once a slice outgrows its
    /// sample budget and is sampled instead).
    pub latency_sample_share: Option<f64>,
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["serve_blocking", "retrain"];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got '{}'",
            parsed.workload
        ));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(parsed)
}

/// Writes the kept spans of a traced run under `.bench_out/`.
pub fn write_spans(args: &Args, lines: &str) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, lines));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let host_before = HostSample::now();
    let report = match args.workload.as_str() {
        "serve_blocking" => serve::run(&args),
        _ => retrain::run(&args),
    };
    let host = HostSample::now().diagnostics_since(&host_before);

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = JsonObject::new();
    for &(name, unit) in table {
        // A layer the workload does not run reads 0; every end-to-end
        // metric must be measured.
        let value = match report.metrics.get(name) {
            Some(&value) => value,
            None if args.trace => 0.0,
            None => panic!("workload {} did not report {name}", args.workload),
        };
        let mut entry = JsonObject::new();
        entry.number("value", value);
        entry.string("unit", unit);
        metrics.raw(name, &entry.finish());
    }
    for failure in &report.check_failures {
        eprintln!("check failed: {failure}");
    }
    let correct = report.check_failures.is_empty() && report.outcomes.mismatches == 0;

    let mut diagnostics = JsonObject::new();
    diagnostics.string("workload", &args.workload);
    diagnostics.int("seed", args.seed);
    diagnostics.raw("host", &host);
    diagnostics.raw("outcomes", &report.outcomes.to_json());
    if let Some(share) = report.latency_sample_share {
        diagnostics.number("latency_sample_share", share);
    }
    println!("{}", diagnostics.finish());

    let mut result = JsonObject::new();
    result.boolean("correct", correct);
    result.int("attempted", report.outcomes.attempted.max(1));
    result.int("failed", report.outcomes.failed());
    result.raw("metrics", &metrics.finish());
    println!("{}", result.finish());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "retrain",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "retrain".into(),
                seed: 9,
                seconds: 20.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "retrain", "--trace", "2"],
            &["--workload", "retrain", "--seconds", "0"],
            &["--workload", "retrain", "--seed"],
            &["--workload", "retrain", "--color", "red"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_naming_rules() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let valid = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        assert!(names.iter().all(|n| valid(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn failed_counts_every_wrong_or_missing_answer() {
        let outcomes = Outcomes {
            attempted: 20,
            ok: 5,
            errors: 1,
            dropped: 2,
            shed: 3,
            deadline_misses: 4,
            mismatches: 5,
        };
        assert_eq!(outcomes.failed(), 11);
        assert_eq!(
            outcomes.ok + outcomes.failed() + outcomes.deadline_misses,
            outcomes.attempted
        );
    }
}
