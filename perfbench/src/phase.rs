//! The measured phase of a serving workload, cut into equal time slices.
//!
//! Client threads record request latencies into a buffer allocated before
//! set-up, with a fixed region per slice; the main thread marks slice
//! boundaries and reads process CPU time and host steal time at each one.
//! Each slice yields its own throughput, percentiles and CPU per request.
//! The phase reports the median of each over the half of the slices in
//! which the hypervisor stole the least CPU: on a small VM a steal burst
//! slows every thread of the program at once, and those slices measure the
//! host, not the program.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::measure::{median, percentile, process_cpu_secs};
use crate::trace::Tracer;
use crate::Outcomes;

/// Per-client record of one phase.
#[derive(Debug)]
pub struct ClientLog {
    /// Latency samples in nanoseconds (saturating): `per_slice` slots for
    /// each slice, slice `s` at `s * per_slice`.
    samples: Vec<u32>,
    per_slice: usize,
    /// Requests completed in each slice, recorded or not.
    completed: Vec<u64>,
    /// Reservoir-sampling state (xorshift64).
    rng: u64,
    pub outcomes: Outcomes,
    pub tracer: Tracer,
}

impl ClientLog {
    /// A log for phases of up to `slices` slices, keeping up to `per_slice`
    /// latencies of each. The buffer is written through once here so its
    /// pages are resident before set-up and the peak-RSS reading does not
    /// depend on how many requests ran.
    pub fn new(slices: usize, per_slice: usize, tracer: Tracer) -> Self {
        let samples = std::hint::black_box(vec![u32::MAX; slices * per_slice]);
        Self {
            samples,
            per_slice,
            completed: vec![0; slices],
            rng: 0x2545_F491_4F6C_DD1D,
            outcomes: Outcomes::default(),
            tracer,
        }
    }

    /// Empties the log for the next phase, keeping its buffers.
    pub fn reset(&mut self, tracer: Tracer) {
        self.completed.fill(0);
        self.outcomes = Outcomes::default();
        self.tracer = tracer;
    }

    /// Records one completed request in the slice now running. A slice
    /// keeps every latency up to its budget and a uniform sample of its
    /// latencies beyond it (reservoir sampling), so a faster program never
    /// runs out of room part-way through a phase.
    pub fn record(&mut self, latency: Duration, slice: &AtomicUsize) {
        let s = slice.load(Ordering::Acquire);
        // Completed after the last boundary: belongs to no slice.
        let Some(done) = self.completed.get_mut(s) else {
            return;
        };
        let seen = *done;
        *done += 1;
        let slot = if (seen as usize) < self.per_slice {
            seen as usize
        } else {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            // Uniform in [0, seen]; the latency replaces a kept one with
            // probability per_slice / (seen + 1).
            let pick = ((u128::from(self.rng) * u128::from(seen + 1)) >> 64) as usize;
            if pick >= self.per_slice {
                return;
            }
            pick
        };
        self.samples[s * self.per_slice + slot] = latency.as_nanos().min(u32::MAX as u128) as u32;
    }

    /// Requests completed in slice `s` and the latencies kept for it.
    fn slice(&self, s: usize) -> (u64, &[u32]) {
        let done = self.completed.get(s).copied().unwrap_or(0);
        let kept = (done as usize).min(self.per_slice);
        let base = s * self.per_slice;
        (done, self.samples.get(base..base + kept).unwrap_or(&[]))
    }
}

/// Slice boundaries and the CPU readings at each.
#[derive(Debug)]
pub struct Slices {
    pub length: Duration,
    /// Process CPU seconds at the phase start and at every boundary.
    cpu: Vec<f64>,
    /// Host steal seconds at the phase start and at every boundary.
    steal: Vec<f64>,
}

impl Slices {
    fn least_stolen(&self) -> Vec<usize> {
        let stolen: Vec<f64> = self.steal.windows(2).map(|w| w[1] - w[0]).collect();
        least_stolen(&stolen)
    }
}

/// Indices of the `ceil(n / 2)` intervals with the least host steal, in
/// order, earlier intervals first among equals. The measurements taken in
/// the other half are set aside: a steal burst slows every thread at once
/// and measures the host, not the program.
pub fn least_stolen(stolen: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stolen.len()).collect();
    order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
    order.truncate(stolen.len().div_ceil(2));
    order.sort_unstable();
    order
}

/// Slice length and count for a phase of `seconds`: one-second slices, or
/// eight equal slices for phases shorter than eight seconds.
pub fn slicing(seconds: f64) -> (Duration, usize) {
    if seconds >= 8.0 {
        (Duration::from_secs(1), seconds.floor() as usize)
    } else {
        (Duration::from_secs_f64(seconds / 8.0), 8)
    }
}

/// Runs on the main thread while clients load the system: advances `slice`
/// at every boundary, then raises `stop`.
pub fn drive(seconds: f64, slice: &AtomicUsize, stop: &AtomicBool) -> Slices {
    let (length, count) = slicing(seconds);
    let start = Instant::now();
    let mut cpu = Vec::with_capacity(count + 1);
    cpu.push(process_cpu_secs());
    let mut steal = vec![crate::measure::steal_secs()];
    for s in 1..=count {
        let boundary = start + length * s as u32;
        if let Some(wait) = boundary.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        cpu.push(process_cpu_secs());
        steal.push(crate::measure::steal_secs());
        slice.store(s, Ordering::Release);
    }
    stop.store(true, Ordering::Release);
    Slices { length, cpu, steal }
}

/// The phase's end-to-end figures: medians over slices.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    pub qps: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub cpu_us_per_req: f64,
    /// Share of the phase's requests whose latency was kept (1 when no
    /// slice outgrew its budget).
    pub sample_share: f64,
}

/// Per-slice throughput, percentiles and CPU, reduced to medians over the
/// least-stolen half of the slices.
pub fn summarize(logs: &[ClientLog], slices: &Slices) -> PhaseStats {
    let (mut qps, mut p50, mut p90, mut cpu) = (vec![], vec![], vec![], vec![]);
    let mut merged: Vec<f64> = Vec::new();
    for s in slices.least_stolen() {
        merged.clear();
        let mut completed = 0u64;
        for log in logs {
            let (done, kept) = log.slice(s);
            completed += done;
            merged.extend(kept.iter().map(|&ns| f64::from(ns) / 1e3));
        }
        qps.push(completed as f64 / slices.length.as_secs_f64());
        if completed > 0 {
            cpu.push((slices.cpu[s + 1] - slices.cpu[s]) * 1e6 / completed as f64);
        }
        if !merged.is_empty() {
            merged.sort_by(f64::total_cmp);
            p50.push(percentile(&merged, 0.5));
            p90.push(percentile(&merged, 0.9));
        }
    }
    let (mut kept, mut done) = (0, 0);
    for log in logs {
        for s in 0..log.completed.len() {
            let (d, k) = log.slice(s);
            done += d;
            kept += k.len() as u64;
        }
    }
    PhaseStats {
        qps: median(&qps),
        p50_us: median(&p50),
        p90_us: median(&p90),
        cpu_us_per_req: median(&cpu),
        sample_share: if done == 0 {
            1.0
        } else {
            kept as f64 / done as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn slices_split_samples_and_take_medians() {
        let slice = AtomicUsize::new(0);
        let mut log = ClientLog::new(4, 16, Tracer::new(false, Instant::now(), 0));
        // Slice 1: 1..=4 µs; slice 2: 10..=13 µs; slice 3: 100 µs once;
        // slice 4: nothing.
        for us in 1..=4 {
            log.record(Duration::from_micros(us), &slice);
        }
        slice.store(1, Ordering::Release);
        for us in 10..=13 {
            log.record(Duration::from_micros(us), &slice);
        }
        slice.store(2, Ordering::Release);
        log.record(Duration::from_micros(100), &slice);
        slice.store(4, Ordering::Release);
        // Completed after the last boundary: excluded from every slice.
        log.record(Duration::from_micros(1000), &slice);
        let mut slices = Slices {
            length: Duration::from_secs(1),
            cpu: vec![0.0, 0.004, 0.008, 0.0081, 0.0082],
            steal: vec![0.0; 5],
        };
        // All four slices are equally stolen, so the first two are kept.
        let stats = summarize(std::slice::from_ref(&log), &slices);
        assert_eq!(stats.qps, 4.0);
        assert_eq!(stats.p50_us, 7.0);
        assert!((stats.p90_us - 8.2).abs() < 1e-9);
        assert!((stats.cpu_us_per_req - 1000.0).abs() < 1e-6);
        assert_eq!(stats.sample_share, 1.0);

        // Steal in the first two slices moves the kept half to the last two.
        slices.steal = vec![0.0, 0.3, 0.6, 0.6, 0.6];
        let stats = summarize(&[log], &slices);
        assert_eq!(stats.qps, 0.5);
        assert_eq!(stats.p50_us, 100.0);
        assert!((stats.cpu_us_per_req - 100.0).abs() < 1e-6);
    }

    #[test]
    fn a_slice_past_its_budget_keeps_a_uniform_sample() {
        let slice = AtomicUsize::new(0);
        let mut log = ClientLog::new(2, 1000, Tracer::new(false, Instant::now(), 0));
        // 100,000 latencies of 1..=100,000 ns in slice 0, three in slice 1.
        for ns in 1..=100_000 {
            log.record(Duration::from_nanos(ns), &slice);
        }
        slice.store(1, Ordering::Release);
        for ns in [5, 6, 7] {
            log.record(Duration::from_nanos(ns), &slice);
        }
        let (done, kept) = log.slice(0);
        assert_eq!((done, kept.len()), (100_000, 1000));
        assert!(kept.iter().all(|&ns| (1..=100_000).contains(&ns)));
        // The sample spans the whole slice, not just its start.
        assert!(kept.iter().filter(|&&ns| ns > 50_000).count() > 400);
        assert_eq!(log.slice(1), (3, &[5u32, 6, 7][..]));
        let slices = Slices {
            length: Duration::from_secs(1),
            cpu: vec![0.0, 1.0, 1.0],
            steal: vec![0.0, 0.0, 1.0],
        };
        let stats = summarize(std::slice::from_ref(&log), &slices);
        assert_eq!(stats.qps, 100_000.0);
        // p50 of 1..=100,000 ns is 50 us; a 1,000-sample estimate is close.
        assert!((stats.p50_us - 50.0).abs() < 5.0, "{}", stats.p50_us);
        assert!((stats.sample_share - 1003.0 / 100_003.0).abs() < 1e-12);
    }

    #[test]
    fn the_least_stolen_half_rounds_up_and_keeps_order() {
        let slices = Slices {
            length: Duration::from_secs(1),
            cpu: vec![0.0; 6],
            steal: vec![0.0, 0.5, 0.5, 0.9, 0.9, 1.0],
        };
        assert_eq!(slices.least_stolen(), vec![1, 3, 4]);
    }

    #[test]
    fn short_phases_get_eight_slices() {
        assert_eq!(slicing(20.0), (Duration::from_secs(1), 20));
        assert_eq!(slicing(2.0), (Duration::from_millis(250), 8));
    }
}
