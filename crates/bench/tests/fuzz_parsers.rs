//! Seeded mutation fuzzing of the byte parsers: a portable model, a bench
//! report and a serving trace, each rendered valid and then mutated by
//! byte flips, inserts, deletes and truncations. Every parse must return,
//! `Ok` or `Err`, without a panic; a model that still loads must score a
//! row of its own width without one.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ae_bench::harness;
use ae_ml::dataset::Dataset;
use ae_ml::forest::{RandomForestConfig, RandomForestRegressor};
use ae_ml::json::Value;
use ae_ml::portable::PortableModel;
use ae_obs::trace::{
    feature_digest, RequestStatus, ServingTrace, TraceMeta, TraceQuery, TraceRecord,
};

/// Mutated inputs per parser.
const CASES: u64 = 4000;

/// Bytes an insert draws from half the time: the characters the three
/// formats give structure to, so that inserts reach past the first check.
const STRUCTURAL: &[u8] = b"{}[]\":,-+.0123456789eE \nqr";

/// SplitMix64: a seeded generator with no dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `valid` after one to three seeded mutations.
fn mutate(valid: &[u8], rng: &mut SplitMix) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => {
                let byte = if rng.below(2) == 0 {
                    STRUCTURAL[rng.below(STRUCTURAL.len())]
                } else {
                    rng.next() as u8
                };
                bytes.insert(at, byte);
            }
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// Feeds `CASES` mutations of `valid` to `parse`, and names the first
/// input that panics.
fn fuzz(name: &str, seed: u64, valid: &[u8], parse: impl Fn(&[u8])) {
    parse(valid);
    let mut rng = SplitMix(seed);
    for case in 0..CASES {
        let input = mutate(valid, &mut rng);
        if catch_unwind(AssertUnwindSafe(|| parse(&input))).is_err() {
            panic!(
                "{name}: case {case} panicked on {:?}",
                String::from_utf8_lossy(&input)
            );
        }
    }
}

fn text(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(bytes)
}

#[test]
fn mutated_portable_models_load_or_fail_without_a_panic() {
    let mut data = Dataset::new(vec!["x".into(), "w".into()], vec!["a".into(), "b".into()]);
    for i in 0..24 {
        let x = i as f64;
        data.push_row(format!("r{i}"), vec![x, x % 3.0], vec![2.0 * x, 50.0 - x])
            .unwrap();
    }
    let mut forest = RandomForestRegressor::new(RandomForestConfig {
        n_estimators: 3,
        seed: 5,
        ..Default::default()
    });
    forest.fit(&data).unwrap();
    let valid = PortableModel::from_forest("fuzz", forest)
        .unwrap()
        .to_bytes()
        .unwrap();
    fuzz("portable model", 0xA11CE, &valid, |bytes| {
        if let Ok(model) = PortableModel::from_bytes(bytes) {
            let row = vec![1.0; model.compiled().num_features()];
            let _ = model.predict(&row);
            let _ = model.forest().predict(&row);
            let _ = model.forest().max_tree_depth();
        }
    });
}

#[test]
fn mutated_json_reports_parse_or_fail_without_a_panic() {
    let path = std::env::temp_dir().join(format!("ae_fuzz_report_{}.json", std::process::id()));
    let path_text = path.to_str().unwrap();
    harness::write_report(
        Some(path_text),
        "fuzz seed report",
        [
            ("qps", Value::Number(1234.5)),
            ("levels", Value::Array(vec![Value::from(0.25), Value::Null])),
            (
                "phase",
                Value::object([("name", "overload".into()), ("ok", true.into())]),
            ),
            ("label", Value::from("q-\u{1F600} \"quoted\"\n")),
        ],
    );
    let valid = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    fuzz("json report", 0xB0B, &valid, |bytes| {
        let _ = Value::parse(&text(bytes));
    });
}

#[test]
fn mutated_serving_traces_parse_or_fail_without_a_panic() {
    let features = vec![1.5, -0.25, 3.75e9];
    let record = |seq: u64, status: RequestStatus| TraceRecord {
        seq,
        arrival_ns: seq * 1_000,
        query: 0,
        level: (seq % 3) as u8,
        tenant: 1,
        status,
        executors: 4,
        predicted_secs: 27.0,
        price: 29.3,
        observed_latency_ns: 81_345,
        missed: seq == 1,
        degraded: false,
        demoted: seq == 2,
    };
    let trace = ServingTrace {
        meta: TraceMeta {
            family: "tpcds".into(),
            model: "m1".into(),
            objective: "elbow".into(),
            seed: 42,
            candidate_counts: vec![1, 2, 4, 8],
            deadline_budgets_ns: [250_000_000, 50_000_000, 10_000_000],
            slowdown_targets: [f64::INFINITY, 1.15, 1.05],
            unit_price: 1.0,
        },
        queries: vec![TraceQuery {
            name: "q7".into(),
            digest: feature_digest(&features),
            features,
            actual_curve: vec![(1, 100.0), (2, 51.5), (4, 27.25), (8, 16.125)],
        }],
        records: vec![
            record(0, RequestStatus::Completed),
            record(1, RequestStatus::Completed),
            record(2, RequestStatus::Shed),
        ],
    };
    let valid = trace.render();
    assert_eq!(ServingTrace::parse(&valid).unwrap(), trace);
    fuzz("serving trace", 0xC0DE, valid.as_bytes(), |bytes| {
        let _ = ServingTrace::parse(&text(bytes));
    });
}
