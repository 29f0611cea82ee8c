//! The bench harness: flag parsing, report writing, the closed-loop driver,
//! and the exit code every driver gives bad command-line input.

use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ae_bench::harness::{self, Flags};
use ae_ml::json::Value;

const SPEC: &[&str] = &["--threads N", "--seconds S", "--shards LIST", "--obs"];

fn parse(args: &[&str]) -> Result<Flags, String> {
    Flags::parse(SPEC, args.iter().map(|a| a.to_string()))
}

#[test]
fn absent_flags_take_their_defaults() {
    let flags = parse(&[]).unwrap();
    assert!(!flags.smoke());
    assert!(!flags.switch("--obs"));
    assert_eq!(flags.json(), None);
    assert_eq!(flags.get("--threads", 8usize), Ok(8));
    assert_eq!(flags.seconds("--seconds", 4.0), Ok(4.0));
    assert_eq!(flags.list("--shards", vec![1usize, 2]), Ok(vec![1, 2]));
}

#[test]
fn switches_values_and_lists_parse() {
    let flags = parse(&[
        "--smoke",
        "--threads",
        "3",
        "--obs",
        "--json",
        "out.json",
        "--seconds",
        "0.5",
        "--shards",
        "1, 4,8",
    ])
    .unwrap();
    assert!(flags.smoke());
    assert!(flags.switch("--obs"));
    assert_eq!(flags.json().as_deref(), Some("out.json"));
    assert_eq!(flags.get("--threads", 8usize), Ok(3));
    assert_eq!(flags.seconds("--seconds", 4.0), Ok(0.5));
    assert_eq!(flags.list("--shards", vec![2usize]), Ok(vec![1, 4, 8]));
}

#[test]
fn unknown_flags_and_missing_values_are_rejected() {
    let unknown = parse(&["--thread", "3"]).unwrap_err();
    assert!(unknown.contains("'--thread'"), "{unknown}");
    assert!(parse(&["extra"]).is_err());
    // A switch of one driver is unknown to a driver without it.
    assert!(Flags::parse(&[], ["--obs".to_string()]).is_err());
    let missing = parse(&["--smoke", "--threads"]).unwrap_err();
    assert!(missing.contains("--threads"), "{missing}");
    assert!(parse(&["--json"]).is_err());
}

#[test]
fn unparsable_values_are_rejected() {
    let flags = parse(&["--threads", "abc", "--shards", "1,x"]).unwrap();
    assert!(flags.get("--threads", 8usize).is_err());
    assert!(flags.list("--shards", vec![1usize]).is_err());
    let empty = parse(&["--shards", ""]).unwrap();
    assert!(empty.list("--shards", vec![1usize]).is_err());
}

#[test]
fn seconds_must_be_finite_and_not_negative() {
    for bad in ["-1", "NaN", "inf", "-inf", "abc"] {
        let flags = parse(&["--seconds", bad]).unwrap();
        assert!(flags.seconds("--seconds", 4.0).is_err(), "accepted {bad}");
    }
    let zero = parse(&["--seconds", "0"]).unwrap();
    assert_eq!(zero.seconds("--seconds", 4.0), Ok(0.0));
}

#[test]
fn write_report_adds_comment_and_host_and_nulls_missing_numbers() {
    let path = std::env::temp_dir().join(format!("ae_bench_report_{}.json", std::process::id()));
    let path_text = path.to_str().unwrap().to_string();
    harness::write_report(
        Some(&path_text),
        "a \"quoted\" comment",
        [
            ("missing", None::<f64>.into()),
            ("nan", f64::NAN.into()),
            ("qps", 1234.5678901234.into()),
            ("rows", vec![1u64, 2].into()),
        ],
    );
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let report = Value::parse(&text).unwrap();
    assert_eq!(
        report.field("comment").unwrap().as_str().unwrap(),
        "a \"quoted\" comment"
    );
    assert!(report
        .field("host")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("-core"));
    assert_eq!(report.field("missing").unwrap(), &Value::Null);
    assert_eq!(report.field("nan").unwrap(), &Value::Null);
    // Full precision: the number reads back bit-exactly.
    assert_eq!(
        report.field("qps").unwrap().as_f64().unwrap(),
        1234.5678901234
    );
    assert_eq!(
        report.field("rows").unwrap().as_f64_vec().unwrap(),
        vec![1.0, 2.0]
    );
}

#[test]
fn closed_loop_counts_exactly_the_requests_it_ran() {
    let calls = AtomicU64::new(0);
    let clients = AtomicU64::new(0);
    let (requests, elapsed) = harness::closed_loop(3, Duration::from_millis(30), |_| {
        clients.fetch_add(1, Ordering::Relaxed);
        || {
            calls.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(requests, calls.load(Ordering::Relaxed));
    assert!(requests > 0);
    assert_eq!(clients.load(Ordering::Relaxed), 3);
    assert!(elapsed >= Duration::from_millis(30));
}

/// Runs a driver and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(bin).args(args).output().unwrap();
    (
        output.status.code(),
        String::from_utf8(output.stderr).unwrap(),
    )
}

const DRIVERS: [&str; 8] = [
    env!("CARGO_BIN_EXE_bench_faults"),
    env!("CARGO_BIN_EXE_bench_fleet"),
    env!("CARGO_BIN_EXE_bench_generalization"),
    env!("CARGO_BIN_EXE_bench_inference"),
    env!("CARGO_BIN_EXE_bench_obs"),
    env!("CARGO_BIN_EXE_bench_qos"),
    env!("CARGO_BIN_EXE_bench_resilience"),
    env!("CARGO_BIN_EXE_bench_serving"),
];

fn assert_usage_error(bin: &str, args: &[&str]) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
}

#[test]
fn every_driver_exits_2_on_bad_input() {
    for bin in DRIVERS {
        assert_usage_error(bin, &["--no-such-flag"]);
        assert_usage_error(bin, &["--smoke", "--json"]);
    }
    for bin in [
        env!("CARGO_BIN_EXE_bench_obs"),
        env!("CARGO_BIN_EXE_bench_qos"),
        env!("CARGO_BIN_EXE_bench_serving"),
    ] {
        assert_usage_error(bin, &["--seconds", "-1"]);
        assert_usage_error(bin, &["--seconds", "NaN"]);
        assert_usage_error(bin, &["--threads", "abc"]);
    }
    for bin in [
        env!("CARGO_BIN_EXE_bench_fleet"),
        env!("CARGO_BIN_EXE_bench_obs"),
        env!("CARGO_BIN_EXE_bench_resilience"),
    ] {
        assert_usage_error(bin, &["--requests", "abc"]);
    }
    assert_usage_error(env!("CARGO_BIN_EXE_bench_fleet"), &["--shards", "1,x"]);
    assert_usage_error(
        env!("CARGO_BIN_EXE_bench_serving"),
        &["--family", "no-such-family"],
    );
}
