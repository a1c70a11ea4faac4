//! Host-speed normalization.
//!
//! On a shared host the same code runs 10–35% faster or slower from one
//! minute to the next as other tenants' load changes. The slowdown hits
//! branchy, allocation-heavy code like the simulator's and spares
//! memory-latency-bound code, and CPU time tracks wall time, so neither
//! medians nor CPU time remove it. A fixed reference kernel of the same
//! kind (B-tree inserts of small heap values) slows down with it: over
//! 10–20 s windows its time correlated 0.75–0.8 with the simulator's.
//!
//! Every timed stretch is therefore bracketed by two kernel samples, and
//! its duration is scaled by [`NOMINAL_KERNEL_S`] over their mean: a
//! normalized duration reads as seconds on a host where the kernel takes
//! its nominal time. The kernel is benchmark code on a thread of its own
//! (so its allocator arena is its own), and it runs only while the
//! workload waits, so no change to the program can change its time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// The kernel's time on the 2-vCPU host the baseline was measured on.
pub const NOMINAL_KERNEL_S: f64 = 0.003;
/// Kernel runs per sample; a sample is their median.
const RUNS_PER_SAMPLE: usize = 5;

/// One run of the reference kernel, in seconds.
fn kernel() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 7;
    let mut map = BTreeMap::new();
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x % 5000, vec![i; 8]);
    }
    drop(black_box(map));
    start.elapsed().as_secs_f64()
}

/// The median of [`RUNS_PER_SAMPLE`] kernel runs.
fn sample() -> f64 {
    let mut runs: Vec<f64> = (0..RUNS_PER_SAMPLE).map(|_| kernel()).collect();
    runs.sort_by(f64::total_cmp);
    runs[RUNS_PER_SAMPLE / 2]
}

/// The calibration thread and the current stretch: the time since the
/// last sample ended.
pub struct HostSpeed {
    requests: Option<Sender<()>>,
    samples: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
    last: f64,
    since: Instant,
    taken: Vec<f64>,
}

impl HostSpeed {
    /// Starts the calibration thread and takes a first sample.
    pub fn start() -> HostSpeed {
        let (requests, rx) = channel::<()>();
        let (tx, samples) = channel();
        let thread = std::thread::spawn(move || {
            while rx.recv().is_ok() {
                if tx.send(sample()).is_err() {
                    break;
                }
            }
        });
        let mut host = HostSpeed {
            requests: Some(requests),
            samples,
            thread: Some(thread),
            last: 0.0,
            since: Instant::now(),
            taken: Vec::new(),
        };
        host.mark();
        host
    }

    /// Starts a stretch: samples the kernel.
    pub fn mark(&mut self) {
        self.last = self.sample();
        self.since = Instant::now();
    }

    /// Seconds since the current stretch began.
    pub fn stretch_s(&self) -> f64 {
        self.since.elapsed().as_secs_f64()
    }

    fn sample(&mut self) -> f64 {
        let requests = self.requests.as_ref().expect("calibration thread running");
        requests.send(()).expect("calibration thread alive");
        let s = self.samples.recv().expect("calibration thread alive");
        self.taken.push(s);
        s
    }

    /// Closes the current stretch and starts the next: samples the
    /// kernel again and returns the stretch's raw seconds and the
    /// factor that normalizes durations measured within it.
    pub fn lap(&mut self) -> (f64, f64) {
        let raw = self.stretch_s();
        let before = self.last;
        self.mark();
        (raw, NOMINAL_KERNEL_S / ((before + self.last) / 2.0))
    }

    /// Median kernel sample so far, in seconds.
    pub fn median_sample(&self) -> f64 {
        crate::stats::median(&self.taken).unwrap_or(0.0)
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        drop(self.requests.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_normalize_against_the_nominal_kernel() {
        let mut host = HostSpeed::start();
        let (raw, factor) = host.lap();
        assert!(raw >= 0.0);
        assert!(factor.is_finite() && factor > 0.0);
        assert_eq!(host.taken.len(), 2);
        assert!(host.median_sample() > 0.0);
    }
}
