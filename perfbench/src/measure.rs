//! Measurement primitives that depend on `std` only: exact percentiles over
//! recorded samples, the `/proc` readers, host diagnostics and the JSON
//! writer. Nothing here calls the crates under test, so a change to those
//! crates cannot change how the benchmark measures.

use std::fmt::Write as _;
use std::time::Instant;

/// Exact percentile of `sorted` (ascending) by linear interpolation between
/// closest ranks, the rule of Python's `statistics.quantiles(method="inclusive")`
/// and NumPy's default. `q` is in `[0, 1]`; an empty slice gives `NaN`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted values (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Mean of values (`0` when empty, so an unexercised layer reads 0).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds since `start` as `f64`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Kernel clock ticks per second for `/proc` CPU counters. Linux has
/// exported `USER_HZ` = 100 to user space on every architecture it
/// supports, independently of the kernel's internal tick rate.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Process CPU seconds (user + system, all threads, including exited ones)
/// from the text of `/proc/self/stat`.
pub fn parse_process_cpu_secs(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; every
    // later field follows the last ')'. Fields 14 and 15 are utime and
    // stime, at offsets 11 and 12 after the state field (field 3).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_SEC)
}

/// Host-wide steal seconds (CPU time the hypervisor gave to other guests),
/// summed over CPUs, from the aggregate `cpu` line of `/proc/stat`.
pub fn parse_steal_secs(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal ...
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / CLOCK_TICKS_PER_SEC)
}

/// A `key:   value [kB]` field of a `/proc/<pid>/status` file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if name.trim() != key {
            return None;
        }
        value.split_whitespace().next()?.parse().ok()
    })
}

/// The last-created PID, the fifth field of `/proc/loadavg`.
pub fn parse_last_pid(loadavg: &str) -> Option<u64> {
    loadavg.split_whitespace().nth(4)?.parse().ok()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Process CPU seconds now (0 when `/proc` is unavailable).
pub fn process_cpu_secs() -> f64 {
    parse_process_cpu_secs(&read("/proc/self/stat")).unwrap_or(0.0)
}

/// Host steal seconds so far (0 when `/proc` is unavailable).
pub fn steal_secs() -> f64 {
    parse_steal_secs(&read("/proc/stat")).unwrap_or(0.0)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    parse_status_field(&read("/proc/self/status"), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Voluntary and involuntary context switches summed over the live
/// threads of this process.
fn context_switches() -> (u64, u64) {
    let mut total = (0, 0);
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let status = read(&format!("{}/status", task.path().display()));
            total.0 += parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
            total.1 += parse_status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
    }
    total
}

/// A point-in-time reading of the host counters a run is judged against.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    steal_secs: f64,
    cpu_secs: f64,
    voluntary: u64,
    involuntary: u64,
    last_pid: u64,
}

impl HostSample {
    /// Reads every counter now.
    pub fn now() -> Self {
        let (voluntary, involuntary) = context_switches();
        Self {
            steal_secs: parse_steal_secs(&read("/proc/stat")).unwrap_or(0.0),
            cpu_secs: process_cpu_secs(),
            voluntary,
            involuntary,
            last_pid: parse_last_pid(&read("/proc/loadavg")).unwrap_or(0),
        }
    }

    /// The change since `before`, as a JSON object. These are diagnostics
    /// printed beside the result, not metrics: they tell a host phase (steal,
    /// preemption) apart from a change in the program.
    pub fn diagnostics_since(&self, before: &HostSample) -> String {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut json = JsonObject::new();
        json.number("steal_s", self.steal_secs - before.steal_secs);
        json.number("process_cpu_s", self.cpu_secs - before.cpu_secs);
        json.int(
            "voluntary_ctxt_switches",
            self.voluntary.saturating_sub(before.voluntary),
        );
        json.int(
            "involuntary_ctxt_switches",
            self.involuntary.saturating_sub(before.involuntary),
        );
        json.int(
            "threads_created",
            self.last_pid.saturating_sub(before.last_pid),
        );
        json.int("cores", cores as u64);
        json.finish()
    }
}

/// A minimal JSON object writer. Numbers are written with Rust's shortest
/// round-trip formatting (every measured digit); non-finite numbers, which
/// JSON cannot carry, are written as `null`.
#[derive(Debug, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&quote(key));
        self.body.push_str(": ");
    }

    /// Adds a floating-point member.
    pub fn number(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value:?}");
        } else {
            self.body.push_str("null");
        }
    }

    /// Adds an integer member.
    pub fn int(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.body, "{value}");
    }

    /// Adds a boolean member.
    pub fn boolean(&mut self, key: &str, value: bool) {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
    }

    /// Adds a string member.
    pub fn string(&mut self, key: &str, value: &str) {
        self.key(key);
        self.body.push_str(&quote(value));
    }

    /// Adds a member whose value is already-encoded JSON.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.body.push_str(json);
    }

    /// The encoded object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_closest_ranks() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&sorted, 0.5), 5.5);
        assert!((percentile(&sorted, 0.9) - 9.1).abs() < 1e-12);
        assert!((percentile(&sorted, 0.25) - 3.25).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_and_mean_of_unsorted_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn process_stat_parser_skips_a_command_name_with_spaces() {
        let stat = "4242 (perf (bench) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 56 0 0 20 0 5 0 777 1000000 300 18446744073709551615";
        assert_eq!(parse_process_cpu_secs(stat), Some(12.9));
        assert_eq!(parse_process_cpu_secs("garbage"), None);
    }

    #[test]
    fn steal_comes_from_the_aggregate_cpu_line() {
        let stat = "cpu  157554 0 30106 317838 4873 0 251 13669 0 0\n\
                    cpu0 79192 0 14858 159002 2220 0 107 6922 0 0\n\
                    intr 1 2 3\n";
        assert_eq!(parse_steal_secs(stat), Some(136.69));
        assert_eq!(parse_steal_secs("intr 1 2"), None);
    }

    #[test]
    fn status_fields_and_last_pid() {
        let status = "Name:\tperfbench\nVmHWM:\t   49152 kB\nThreads:\t3\n\
                      voluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(49152));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(120)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(7)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        assert_eq!(parse_last_pid("0.02 0.64 1.12 2/85 10473\n"), Some(10473));
    }

    #[test]
    fn json_writer_keeps_every_digit_and_escapes_strings() {
        let mut json = JsonObject::new();
        json.number("a", 1.2034567891);
        json.number("bad", f64::NAN);
        json.int("n", 3);
        json.boolean("ok", true);
        json.string("s", "say \"hi\"\n");
        assert_eq!(
            json.finish(),
            r#"{"a": 1.2034567891, "bad": null, "n": 3, "ok": true, "s": "say \"hi\"\n"}"#
        );
    }
}
