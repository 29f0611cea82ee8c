//! The serving-trace format: a compact, versioned, bit-exact record of
//! one serving session, sufficient to re-evaluate alternative
//! configurations offline without re-simulation.
//!
//! A [`ServingTrace`] has three sections:
//!
//! * **meta** — the capture-side configuration a replayer needs to
//!   reproduce outcomes: workload family, model label, selection
//!   objective, seed, candidate executor counts, per-level deadline
//!   budgets, slowdown targets, and unit price.
//! * **queries** — the distinct queries observed, each with its full
//!   feature vector (bit-exact), an FNV digest of those features, and a
//!   *ground-truth actual runtime curve* `t_actual(n)` over the candidate
//!   counts, measured once at capture time by deterministic simulation.
//!   The curve is what lets replay evaluate an *alternative* config's
//!   choice `n'` without re-simulating: `t_actual(n')` is already in the
//!   trace.
//! * **records** — one line per request: the envelope (arrival offset,
//!   query index, service level, tenant, status) and the outcome (chosen
//!   executors, predicted runtime, price, observed serving latency,
//!   miss/degraded/demoted flags).
//!
//! # Bit-exactness and versioning
//!
//! Every `f64` travels as the 16-hex-digit `to_bits()` pattern, so
//! `parse(render(t)) == t` exactly (including NaN payloads) and
//! `render(parse(s)) == s` for any trace this library wrote. The first
//! line carries the format version ([`TRACE_FORMAT_VERSION`]); parsers
//! reject versions they do not understand rather than guessing. Any
//! change to the line grammar must bump the version.

use std::fmt::Write as _;
use std::sync::Mutex;

use crate::{thread_slot, DEFAULT_SHARDS};

/// Version tag written on (and required at) the first line of every
/// serialized trace.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// Number of service levels a trace carries budgets for (mirrors the
/// serving runtime's `ServiceLevel::COUNT` without depending on it).
pub const TRACE_LEVELS: usize = 3;

/// FNV-1a digest of a feature vector's exact bit patterns. Stable across
/// capture and replay; two queries with identical features collide by
/// design (they *are* the same point in feature space).
pub fn feature_digest(features: &[f64]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &f in features {
        for b in f.to_bits().to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

/// Capture-side configuration recorded in the trace header.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Workload family label (e.g. `tpcds`). Single token: whitespace is
    /// replaced with `_` at render time.
    pub family: String,
    /// Label of the model that served the capture.
    pub model: String,
    /// Selection objective label the capture ran under.
    pub objective: String,
    /// Seed of the capture session (arrival schedule and simulation).
    pub seed: u64,
    /// Candidate executor counts the scorer chose from.
    pub candidate_counts: Vec<u32>,
    /// Per-level scoring deadline budgets in nanoseconds, indexed by
    /// service-level index (0 = best-effort).
    pub deadline_budgets_ns: [u64; TRACE_LEVELS],
    /// Per-level slowdown targets the pricer used.
    pub slowdown_targets: [f64; TRACE_LEVELS],
    /// Price of one executor-second of predicted work at the base level.
    pub unit_price: f64,
}

/// One distinct query observed during capture.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceQuery {
    /// Query name (single token; whitespace replaced with `_`).
    pub name: String,
    /// The full feature vector, bit-exact.
    pub features: Vec<f64>,
    /// [`feature_digest`] of `features` (recomputed and checked at
    /// parse time).
    pub digest: u64,
    /// Ground-truth actual runtime `(n, t_actual_secs)` over the
    /// candidate counts, from deterministic simulation at capture time.
    pub actual_curve: Vec<(u32, f64)>,
}

impl TraceQuery {
    /// `t_actual` at executor count `n`, when `n` is on the curve.
    pub fn actual_secs(&self, n: u32) -> Option<f64> {
        self.actual_curve
            .iter()
            .find(|&&(count, _)| count == n)
            .map(|&(_, secs)| secs)
    }
}

/// How a captured request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Scored successfully (possibly degraded).
    Completed,
    /// Evicted from a queue to admit higher-value work.
    Shed,
    /// Rejected at admission (queue full).
    Dropped,
    /// Rejected by the tenant governor.
    Throttled,
    /// Failed with a scoring error.
    Errored,
}

impl RequestStatus {
    fn code(self) -> char {
        match self {
            RequestStatus::Completed => 'c',
            RequestStatus::Shed => 's',
            RequestStatus::Dropped => 'd',
            RequestStatus::Throttled => 't',
            RequestStatus::Errored => 'e',
        }
    }

    fn from_code(c: &str) -> Result<Self, TraceError> {
        match c {
            "c" => Ok(RequestStatus::Completed),
            "s" => Ok(RequestStatus::Shed),
            "d" => Ok(RequestStatus::Dropped),
            "t" => Ok(RequestStatus::Throttled),
            "e" => Ok(RequestStatus::Errored),
            other => Err(TraceError(format!("unknown status code {other:?}"))),
        }
    }

    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            RequestStatus::Completed => "completed",
            RequestStatus::Shed => "shed",
            RequestStatus::Dropped => "dropped",
            RequestStatus::Throttled => "throttled",
            RequestStatus::Errored => "errored",
        }
    }
}

const FLAG_MISSED: u32 = 1;
const FLAG_DEGRADED: u32 = 2;
const FLAG_DEMOTED: u32 = 4;

/// One request's envelope and outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Submission order within the capture (dense, 0-based).
    pub seq: u64,
    /// Scheduled arrival offset from capture start, in nanoseconds.
    pub arrival_ns: u64,
    /// Index into [`ServingTrace::queries`].
    pub query: u32,
    /// Requested service-level index (before any demotion).
    pub level: u8,
    /// Tenant index.
    pub tenant: u32,
    /// How the request left the system.
    pub status: RequestStatus,
    /// Chosen executor count (0 for non-completed requests).
    pub executors: u32,
    /// Predicted runtime at `executors`, seconds (bit-exact).
    pub predicted_secs: f64,
    /// Quoted price (bit-exact; 0.0 for non-completed requests).
    pub price: f64,
    /// Observed serving latency (submit → fulfilled) in nanoseconds.
    pub observed_latency_ns: u64,
    /// Canonical deadline-miss flag: `observed_latency_ns` exceeded the
    /// request's level budget from [`TraceMeta::deadline_budgets_ns`].
    pub missed: bool,
    /// Served by the heuristic fallback (breaker open).
    pub degraded: bool,
    /// Demoted to best-effort by the tenant governor before scoring.
    pub demoted: bool,
}

impl TraceRecord {
    fn flags(&self) -> u32 {
        (self.missed as u32) * FLAG_MISSED
            + (self.degraded as u32) * FLAG_DEGRADED
            + (self.demoted as u32) * FLAG_DEMOTED
    }
}

/// A parse or validation failure, with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace error: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

/// A complete captured serving session.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingTrace {
    /// Capture-side configuration.
    pub meta: TraceMeta,
    /// Distinct queries, referenced by [`TraceRecord::query`].
    pub queries: Vec<TraceQuery>,
    /// Per-request records, sorted by `seq`.
    pub records: Vec<TraceRecord>,
}

fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_hex_f64(s: &str) -> Result<f64, TraceError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| TraceError(format!("bad f64 bit pattern {s:?}")))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, TraceError> {
    s.parse()
        .map_err(|_| TraceError(format!("bad {what}: {s:?}")))
}

fn token(s: &str) -> String {
    if s.is_empty() {
        return "_".to_string();
    }
    s.chars()
        .map(|c| {
            if c.is_whitespace() || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

impl ServingTrace {
    /// Serializes the trace to its canonical text form. The rendering is
    /// deterministic: equal traces render to equal strings.
    pub fn render(&self) -> String {
        let mut out =
            String::with_capacity(64 + self.queries.len() * 256 + self.records.len() * 96);
        let _ = writeln!(out, "aeobs-trace v{TRACE_FORMAT_VERSION}");
        let m = &self.meta;
        let _ = writeln!(
            out,
            "meta {} {} {} {}",
            token(&m.family),
            token(&m.model),
            token(&m.objective),
            m.seed
        );
        let counts: Vec<String> = m.candidate_counts.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(out, "counts {}", counts.join(" "));
        let _ = writeln!(
            out,
            "budgets_ns {} {} {}",
            m.deadline_budgets_ns[0], m.deadline_budgets_ns[1], m.deadline_budgets_ns[2]
        );
        let _ = writeln!(
            out,
            "targets {} {} {}",
            hex_f64(m.slowdown_targets[0]),
            hex_f64(m.slowdown_targets[1]),
            hex_f64(m.slowdown_targets[2])
        );
        let _ = writeln!(out, "unit_price {}", hex_f64(m.unit_price));
        let _ = writeln!(out, "queries {}", self.queries.len());
        for q in &self.queries {
            let feats: Vec<String> = q.features.iter().map(|&f| hex_f64(f)).collect();
            let curve: Vec<String> = q
                .actual_curve
                .iter()
                .map(|&(n, t)| format!("{n}:{}", hex_f64(t)))
                .collect();
            let _ = writeln!(
                out,
                "q {} {:016x} {} {} {} {}",
                token(&q.name),
                q.digest,
                q.features.len(),
                feats.join(" "),
                q.actual_curve.len(),
                curve.join(" ")
            );
        }
        let _ = writeln!(out, "records {}", self.records.len());
        for r in &self.records {
            let _ = writeln!(
                out,
                "r {} {} {} {} {} {} {} {} {} {} {}",
                r.seq,
                r.arrival_ns,
                r.query,
                r.level,
                r.tenant,
                r.status.code(),
                r.executors,
                hex_f64(r.predicted_secs),
                hex_f64(r.price),
                r.observed_latency_ns,
                r.flags()
            );
        }
        out.push_str("end\n");
        out
    }

    /// Parses a trace rendered by [`render`](Self::render). Rejects
    /// unknown format versions, malformed lines, out-of-range query
    /// references, and feature vectors whose digest does not match.
    pub fn parse(text: &str) -> Result<ServingTrace, TraceError> {
        let mut lines = text.lines();
        let mut next = |what: &str| {
            lines
                .next()
                .ok_or_else(|| TraceError(format!("truncated trace: missing {what}")))
        };

        let header = next("version line")?;
        let version = header
            .strip_prefix("aeobs-trace v")
            .ok_or_else(|| TraceError(format!("not a serving trace: {header:?}")))?;
        let version: u32 = parse_num(version, "format version")?;
        if version != TRACE_FORMAT_VERSION {
            return Err(TraceError(format!(
                "unsupported trace format v{version} (this library reads v{TRACE_FORMAT_VERSION})"
            )));
        }

        let meta_line = next("meta line")?;
        let parts: Vec<&str> = meta_line.split(' ').collect();
        if parts.len() != 5 || parts[0] != "meta" {
            return Err(TraceError(format!("bad meta line: {meta_line:?}")));
        }
        let (family, model, objective) = (
            parts[1].to_string(),
            parts[2].to_string(),
            parts[3].to_string(),
        );
        let seed: u64 = parse_num(parts[4], "seed")?;

        let counts_line = next("counts line")?;
        let counts_body = counts_line
            .strip_prefix("counts")
            .ok_or_else(|| TraceError(format!("bad counts line: {counts_line:?}")))?;
        let candidate_counts: Vec<u32> = counts_body
            .split_whitespace()
            .map(|c| parse_num(c, "candidate count"))
            .collect::<Result<_, _>>()?;

        let budgets_line = next("budgets line")?;
        let parts: Vec<&str> = budgets_line.split(' ').collect();
        if parts.len() != 4 || parts[0] != "budgets_ns" {
            return Err(TraceError(format!("bad budgets line: {budgets_line:?}")));
        }
        let deadline_budgets_ns = [
            parse_num(parts[1], "budget")?,
            parse_num(parts[2], "budget")?,
            parse_num(parts[3], "budget")?,
        ];

        let targets_line = next("targets line")?;
        let parts: Vec<&str> = targets_line.split(' ').collect();
        if parts.len() != 4 || parts[0] != "targets" {
            return Err(TraceError(format!("bad targets line: {targets_line:?}")));
        }
        let slowdown_targets = [
            parse_hex_f64(parts[1])?,
            parse_hex_f64(parts[2])?,
            parse_hex_f64(parts[3])?,
        ];

        let price_line = next("unit_price line")?;
        let unit_price = parse_hex_f64(
            price_line
                .strip_prefix("unit_price ")
                .ok_or_else(|| TraceError(format!("bad unit_price line: {price_line:?}")))?,
        )?;

        let count_line = next("queries count")?;
        let num_queries: usize = parse_num(
            count_line
                .strip_prefix("queries ")
                .ok_or_else(|| TraceError(format!("bad queries line: {count_line:?}")))?,
            "query count",
        )?;
        let mut queries = Vec::new();
        for _ in 0..num_queries {
            let line = next("query line")?;
            let mut parts = line.split(' ');
            if parts.next() != Some("q") {
                return Err(TraceError(format!("bad query line: {line:?}")));
            }
            let name = parts
                .next()
                .ok_or_else(|| TraceError("query line missing name".into()))?
                .to_string();
            let digest = u64::from_str_radix(
                parts
                    .next()
                    .ok_or_else(|| TraceError("query line missing digest".into()))?,
                16,
            )
            .map_err(|_| TraceError("bad query digest".into()))?;
            let num_features: usize = parse_num(
                parts
                    .next()
                    .ok_or_else(|| TraceError("query line missing feature count".into()))?,
                "feature count",
            )?;
            let mut features = Vec::new();
            for _ in 0..num_features {
                features.push(parse_hex_f64(parts.next().ok_or_else(|| {
                    TraceError(format!("query {name}: truncated feature list"))
                })?)?);
            }
            let num_points: usize = parse_num(
                parts
                    .next()
                    .ok_or_else(|| TraceError("query line missing curve count".into()))?,
                "curve point count",
            )?;
            let mut actual_curve = Vec::new();
            for _ in 0..num_points {
                let pair = parts
                    .next()
                    .ok_or_else(|| TraceError(format!("query {name}: truncated curve")))?;
                let (n, t) = pair
                    .split_once(':')
                    .ok_or_else(|| TraceError(format!("bad curve point {pair:?}")))?;
                actual_curve.push((parse_num(n, "curve count")?, parse_hex_f64(t)?));
            }
            if parts.next().is_some() {
                return Err(TraceError(format!("query {name}: trailing tokens")));
            }
            if feature_digest(&features) != digest {
                return Err(TraceError(format!(
                    "query {name}: feature digest mismatch (corrupt trace?)"
                )));
            }
            queries.push(TraceQuery {
                name,
                features,
                digest,
                actual_curve,
            });
        }

        let count_line = next("records count")?;
        let num_records: usize = parse_num(
            count_line
                .strip_prefix("records ")
                .ok_or_else(|| TraceError(format!("bad records line: {count_line:?}")))?,
            "record count",
        )?;
        let mut records = Vec::new();
        for _ in 0..num_records {
            let line = next("record line")?;
            let parts: Vec<&str> = line.split(' ').collect();
            if parts.len() != 12 || parts[0] != "r" {
                return Err(TraceError(format!("bad record line: {line:?}")));
            }
            let query: u32 = parse_num(parts[3], "query index")?;
            if query as usize >= queries.len() {
                return Err(TraceError(format!(
                    "record references query {query} of {}",
                    queries.len()
                )));
            }
            let flags: u32 = parse_num(parts[11], "flags")?;
            records.push(TraceRecord {
                seq: parse_num(parts[1], "seq")?,
                arrival_ns: parse_num(parts[2], "arrival")?,
                query,
                level: parse_num(parts[4], "level")?,
                tenant: parse_num(parts[5], "tenant")?,
                status: RequestStatus::from_code(parts[6])?,
                executors: parse_num(parts[7], "executors")?,
                predicted_secs: parse_hex_f64(parts[8])?,
                price: parse_hex_f64(parts[9])?,
                observed_latency_ns: parse_num(parts[10], "latency")?,
                missed: flags & FLAG_MISSED != 0,
                degraded: flags & FLAG_DEGRADED != 0,
                demoted: flags & FLAG_DEMOTED != 0,
            });
        }
        if next("end marker")? != "end" {
            return Err(TraceError("missing end marker".into()));
        }
        Ok(ServingTrace {
            meta: TraceMeta {
                family,
                model,
                objective,
                seed,
                candidate_counts,
                deadline_budgets_ns,
                slowdown_targets,
                unit_price,
            },
            queries,
            records,
        })
    }
}

/// Concurrent capture buffer: load-generator threads append records to
/// per-thread shards without contending; [`finish`](Self::finish)
/// restores submission order by `seq`.
#[derive(Debug)]
pub struct TraceRecorder {
    shards: Box<[Mutex<Vec<TraceRecord>>]>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self {
            shards: (0..DEFAULT_SHARDS)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// Appends one record (thread-safe, shard per thread).
    pub fn record(&self, record: TraceRecord) {
        self.shards[thread_slot() % self.shards.len()]
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .push(record);
    }

    /// Records captured so far.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves the records out, sorted by [`TraceRecord::seq`].
    pub fn finish(&self) -> Vec<TraceRecord> {
        let mut records: Vec<TraceRecord> = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            let mut shard = shard.lock().unwrap_or_else(|poison| poison.into_inner());
            records.append(&mut shard);
        }
        records.sort_by_key(|r| r.seq);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_trace() -> ServingTrace {
        let features = vec![1.5, -0.25, 3.75e9, f64::MIN_POSITIVE];
        let digest = feature_digest(&features);
        ServingTrace {
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
                features,
                digest,
                actual_curve: vec![(1, 100.0), (2, 51.5), (4, 27.25), (8, 16.125)],
            }],
            records: vec![
                TraceRecord {
                    seq: 0,
                    arrival_ns: 0,
                    query: 0,
                    level: 2,
                    tenant: 1,
                    status: RequestStatus::Completed,
                    executors: 4,
                    predicted_secs: 27.0,
                    price: 29.3,
                    observed_latency_ns: 81_345,
                    missed: false,
                    degraded: false,
                    demoted: false,
                },
                TraceRecord {
                    seq: 1,
                    arrival_ns: 12_000,
                    query: 0,
                    level: 0,
                    tenant: 0,
                    status: RequestStatus::Shed,
                    executors: 0,
                    predicted_secs: 0.0,
                    price: 0.0,
                    observed_latency_ns: 0,
                    missed: false,
                    degraded: false,
                    demoted: true,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let trace = sample_trace();
        let text = trace.render();
        let parsed = ServingTrace::parse(&text).unwrap();
        assert_eq!(parsed, trace, "parse(render(t)) must equal t exactly");
        assert_eq!(
            parsed.render(),
            text,
            "render(parse(s)) must equal s exactly"
        );
        // Bit-exactness covers the infinity in the slowdown targets and
        // the subnormal feature.
        assert_eq!(
            parsed.meta.slowdown_targets[0].to_bits(),
            f64::INFINITY.to_bits()
        );
        assert_eq!(
            parsed.queries[0].features[3].to_bits(),
            f64::MIN_POSITIVE.to_bits()
        );
    }

    #[test]
    fn version_and_corruption_are_rejected() {
        let trace = sample_trace();
        let text = trace.render();
        let wrong_version = text.replacen("aeobs-trace v1", "aeobs-trace v9", 1);
        assert!(ServingTrace::parse(&wrong_version).is_err());
        assert!(ServingTrace::parse("not a trace").is_err());
        // Flip one feature bit: the digest check must catch it.
        let q_line = text.lines().nth(7).unwrap().to_string();
        assert!(q_line.starts_with("q "), "fixture layout changed: {q_line}");
        let corrupted_q = {
            let mut parts: Vec<String> = q_line.split(' ').map(String::from).collect();
            let bits = u64::from_str_radix(&parts[4], 16).unwrap() ^ 1;
            parts[4] = format!("{bits:016x}");
            parts.join(" ")
        };
        let corrupted = text.replacen(&q_line, &corrupted_q, 1);
        let err = ServingTrace::parse(&corrupted).unwrap_err();
        assert!(err.0.contains("digest mismatch"), "{err}");
        // Truncation.
        let truncated: String = text.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(ServingTrace::parse(&truncated).is_err());
    }

    #[test]
    fn counts_past_the_text_are_rejected_without_allocating_them() {
        let text = sample_trace().render();
        let q_line = text.lines().nth(7).unwrap();
        let mut parts: Vec<&str> = q_line.split(' ').collect();
        for huge in ["100000000000000", "18446744073709551615"] {
            for (from, to) in [("queries 1", "queries"), ("records 2", "records")] {
                let edited = text.replacen(from, &format!("{to} {huge}"), 1);
                assert!(ServingTrace::parse(&edited).is_err(), "{to} {huge}");
            }
            // The feature count, then the curve point count.
            for field in [3, 8] {
                let count = std::mem::replace(&mut parts[field], huge);
                assert_eq!(count, "4", "fixture layout changed: {q_line}");
                let edited = text.replacen(q_line, &parts.join(" "), 1);
                assert!(
                    ServingTrace::parse(&edited).is_err(),
                    "field {field}: {huge}"
                );
                parts[field] = count;
            }
        }
    }

    #[test]
    fn tokens_are_sanitized() {
        let mut trace = sample_trace();
        trace.meta.family = "tp cds\n".into();
        trace.queries[0].name = "q 7".into();
        let parsed = ServingTrace::parse(&trace.render()).unwrap();
        assert_eq!(parsed.meta.family, "tp_cds_");
        assert_eq!(parsed.queries[0].name, "q_7");
    }

    #[test]
    fn recorder_restores_submission_order() {
        let recorder = std::sync::Arc::new(TraceRecorder::new());
        let template = sample_trace().records[0];
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let rec = std::sync::Arc::clone(&recorder);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        rec.record(TraceRecord {
                            seq: t * 50 + i,
                            ..template
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let records = recorder.finish();
        assert_eq!(records.len(), 200);
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(recorder.is_empty(), "finish drains the recorder");
    }

    #[test]
    fn curve_lookup() {
        let trace = sample_trace();
        assert_eq!(trace.queries[0].actual_secs(4), Some(27.25));
        assert_eq!(trace.queries[0].actual_secs(5), None);
    }
}
