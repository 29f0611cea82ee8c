//! The one harness behind the eight `bench_*` drivers.
//!
//! Every driver gets from here:
//!
//! * one command line. [`args`] parses the driver's own flags plus the two
//!   every driver shares: `--smoke`, a short run that checks the driver's
//!   smoke assertions, and `--json PATH`, which writes the report to
//!   `PATH`; without it no file is written. Bad input (an unknown flag, a
//!   missing or unparsable value, a negative or non-finite `--seconds`)
//!   ends the process with exit code 2 and one line on stderr.
//! * one trained fixture, [`Served`]: a parameter model trained from
//!   noise-free runs and registered for serving, plus the suite's
//!   optimized plans and their feature rows.
//! * one closed-loop driver, [`closed_loop`]. It only counts requests; a
//!   driver that times each request does so inside its own closure, so the
//!   loops that measure capacity or an A/B overhead pay nothing extra.
//! * one report writer, [`write_report`]. A report is an
//!   [`ae_ml::json::Value`] object plus `comment` and `host`, written
//!   compact with sorted keys and full-precision numbers.
//! * one smoke gate, [`gate`]. Failures end the process with exit code 1.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ae_engine::plan::QueryPlan;
use ae_ml::json::Value;
use ae_serve::{FleetConfig, RuntimeConfig, ScoringRuntime, ShardedRuntime};
use ae_workload::{ClosedLoop, QueryInstance};
use autoexecutor::prelude::*;

/// Flags every driver accepts besides its own.
const SHARED_FLAGS: [&str; 2] = ["--smoke", "--json PATH"];

/// A driver's parsed command line.
#[derive(Debug, Default)]
pub struct Flags {
    switches: BTreeSet<&'static str>,
    values: BTreeMap<&'static str, String>,
}

impl Flags {
    /// Parses `args` (the command line without the program name) against
    /// `spec`, the driver's own flags: a flag that takes a value is written
    /// with a placeholder (`"--threads N"`), a switch without one
    /// (`"--obs"`). `--smoke` and `--json PATH` are always accepted. An
    /// unknown flag and a flag missing its value are rejected here; values
    /// are parsed by the getters.
    pub fn parse(
        spec: &[&'static str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let accepted: Vec<&'static str> = SHARED_FLAGS.iter().chain(spec).copied().collect();
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(&entry) = accepted
                .iter()
                .find(|entry| entry.split(' ').next() == Some(arg.as_str()))
            else {
                return Err(format!(
                    "unknown flag '{arg}' (accepted: {})",
                    accepted.join(", ")
                ));
            };
            match entry.split_once(' ') {
                None => {
                    flags.switches.insert(entry);
                }
                Some((name, _)) => {
                    let value = args.next().ok_or(format!("{entry}: missing value"))?;
                    flags.values.insert(name, value);
                }
            }
        }
        Ok(flags)
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// Whether `--smoke` was given.
    pub fn smoke(&self) -> bool {
        self.switch("--smoke")
    }

    /// The `--json PATH` report path, if given.
    pub fn json(&self) -> Option<String> {
        self.values.get("--json").cloned()
    }

    /// The value of `name` parsed as a `T`, or `default` when absent.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot parse '{text}'")),
        }
    }

    /// The comma-separated list under `name`, or `default` when absent.
    pub fn list<T: FromStr>(&self, name: &str, default: Vec<T>) -> Result<Vec<T>, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(text) => text
                .split(',')
                .map(|item| {
                    item.trim()
                        .parse()
                        .map_err(|_| format!("{name}: cannot parse '{item}' in '{text}'"))
                })
                .collect(),
        }
    }

    /// A number of seconds under `name`, or `default` when absent; it must
    /// be finite and not negative.
    pub fn seconds(&self, name: &str, default: f64) -> Result<f64, String> {
        let seconds = self.get(name, default)?;
        if seconds.is_finite() && seconds >= 0.0 {
            Ok(seconds)
        } else {
            Err(format!(
                "{name}: '{seconds}' is not a finite, non-negative number of seconds"
            ))
        }
    }
}

/// Parses this process's command line against `spec` (see
/// [`Flags::parse`]) and hands the flags to `build`. A rejection from
/// either ends the process through [`usage_error`].
pub fn args<A>(spec: &[&'static str], build: impl FnOnce(&Flags) -> Result<A, String>) -> A {
    Flags::parse(spec, std::env::args().skip(1))
        .and_then(|flags| build(&flags))
        .unwrap_or_else(|message| usage_error(&message))
}

/// Ends the process for bad command-line input: one line on stderr, exit
/// code 2.
pub fn usage_error(message: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    let name = Path::new(&program)
        .file_name()
        .map_or(program.clone(), |name| name.to_string_lossy().into_owned());
    eprintln!("{name}: {message}");
    std::process::exit(2)
}

/// A parameter model trained on a suite and registered for serving, with
/// the suite ready to replay.
pub struct Served {
    /// The configuration the model was trained with (noise-free training
    /// runs).
    pub config: AutoExecutorConfig,
    /// The training suite, plans as generated.
    pub suite: Vec<QueryInstance>,
    /// The trained model.
    pub model: ParameterModel,
    /// An in-memory registry holding the model under [`Served::name`].
    pub registry: Arc<ModelRegistry>,
    /// The registry key and portable-model name.
    pub name: &'static str,
    /// Each suite plan after the default optimizer rules: the scoring rule
    /// runs last in the optimizer, so serving sees optimized plans.
    pub plans: Vec<QueryPlan>,
    /// The feature row of each optimized plan.
    pub features: Vec<Vec<f64>>,
}

impl Served {
    /// Trains the model on `suite` from noise-free runs, registers it as
    /// `name`, and optimizes and featurizes every plan. Prints the training
    /// line, naming the suite by `label`.
    pub fn train(suite: Vec<QueryInstance>, label: &str, name: &'static str) -> Served {
        println!(
            "==> training the parameter model ({}-query SF10 {label})",
            suite.len()
        );
        let mut config = AutoExecutorConfig::default();
        config.training_run.noise_cv = 0.0;
        let (_, model) = train_from_workload(&suite, &config).expect("training");
        let registry = Arc::new(ModelRegistry::in_memory());
        registry
            .register(name, model.to_portable(name).expect("portable export"))
            .expect("model registration");
        let rewriter = Optimizer::with_default_rules();
        let plans: Vec<QueryPlan> = suite
            .iter()
            .map(|q| rewriter.optimize(q.plan.clone()).expect("optimize").plan)
            .collect();
        let features = plans.iter().map(autoexecutor::featurize_plan).collect();
        Served {
            config,
            suite,
            model,
            registry,
            name,
            plans,
            features,
        }
    }

    /// A warmed scoring runtime over the registered model.
    pub fn runtime(&self, config: RuntimeConfig) -> ScoringRuntime {
        let runtime = ScoringRuntime::new(Arc::clone(&self.registry), self.name, config);
        runtime.warm().expect("model warm-up");
        runtime
    }

    /// A warmed sharded fleet over the registered model.
    pub fn fleet(&self, config: FleetConfig) -> ShardedRuntime {
        let fleet = ShardedRuntime::new(Arc::clone(&self.registry), self.name, config);
        fleet.warm().expect("model warm-up");
        fleet
    }

    /// [`closed_loop`] over the optimized plans: client `t` walks its own
    /// [`ClosedLoop`] sequence and calls `request` on each plan.
    pub fn closed_loop(
        &self,
        threads: usize,
        duration: Duration,
        request: impl Fn(&QueryPlan) + Sync,
    ) -> (u64, Duration) {
        let sequences = ClosedLoop::new(threads, 512, 1).sequences(self.plans.len());
        closed_loop(threads, duration, |t| {
            let sequence = &sequences[t % sequences.len()];
            let request = &request;
            let mut i = 0usize;
            move || {
                request(&self.plans[sequence[i % sequence.len()]]);
                i += 1;
            }
        })
    }
}

/// Closed-loop load for `duration`: `threads` clients, each issuing its
/// next request as soon as the last one returns. `client(t)` sets up client
/// `t` and returns the closure that issues one request. The driver only
/// counts the calls; it returns the total and the elapsed wall time.
pub fn closed_loop<R: FnMut()>(
    threads: usize,
    duration: Duration,
    client: impl Fn(usize) -> R + Sync,
) -> (u64, Duration) {
    let start = Instant::now();
    let requests = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                let client = &client;
                scope.spawn(move || {
                    let mut request = client(t);
                    let mut count = 0u64;
                    while start.elapsed() < duration {
                        request();
                        count += 1;
                    }
                    count
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("closed-loop client panicked"))
            .sum()
    });
    (requests, start.elapsed())
}

/// Writes a report to `path`, the `--json PATH` value; without a path
/// nothing is written. The report is `fields` plus `comment` and `host`,
/// written compact with sorted keys and full-precision numbers; `None` and
/// non-finite numbers become `null`. The text is parsed back before it is
/// written, so a malformed report panics instead of reaching a reader.
pub fn write_report(
    path: Option<&str>,
    comment: &str,
    fields: impl IntoIterator<Item = (&'static str, Value)>,
) {
    let Some(path) = path else {
        return;
    };
    let mut report: BTreeMap<String, Value> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    report.insert("comment".to_string(), comment.into());
    report.insert("host".to_string(), host().into());
    let text = Value::Object(report).to_json();
    Value::parse(&text).expect("a report parses back");
    std::fs::write(path, text + "\n").unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

/// The `host` line of every report: core count and build profile.
fn host() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("{cores}-core host ({profile} profile)")
}

/// The smoke gate. With no `failures` it prints `"{name} OK ({passed})"`;
/// otherwise it prints `"{name} FAILED: "` and every failure on one line,
/// and ends the process with exit code 1.
pub fn gate(name: &str, failures: &[String], passed: &str) {
    if failures.is_empty() {
        println!("{name} OK ({passed})");
    } else {
        eprintln!("{name} FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}
