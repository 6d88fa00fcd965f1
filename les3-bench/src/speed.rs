//! The harness's speedometer: how fast the machine is while a run
//! measures, so that times can be reported at one machine speed.
//!
//! The benchmark runs on a few cores of a shared host. For minutes at a
//! time a neighbour slows everything down by 10–40 % — the same binary on
//! the same seed read 656 µs and 897 µs `lib_knn` medians four minutes
//! apart — and no statistic within a 25-second run can tell that from a
//! slower program. So the harness runs a fixed kernel of its own every
//! 20 ms between operations: merge intersections of small sorted `u32`
//! arrays, the shape of the product's verify loop, on data that fits the
//! first-level cache. Every time metric of a time slice is multiplied by
//! `REFERENCE_NS ÷ the kernel's median cost in that slice`, which puts it
//! in microseconds of a machine on which the kernel costs `REFERENCE_NS`.
//! A change to the product moves the product's time and not the
//! kernel's, so the ratio of two commits is what it would be raw; what
//! the host does moves both. Same-seed series under a neighbour's load
//! spread half as wide scaled as raw (README, "Steadiness").
//!
//! The kernel is the benchmark's: a change that claims a gain may not
//! touch it.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// What one reading of the kernel costs on the container the first
/// baseline was recorded on, when no neighbour is at work, in nanoseconds.
pub const REFERENCE_NS: f64 = 366_000.0;

/// Passes over the arrays per reading: the first finds the arrays and the
/// branch history cold after whatever the workload just did, the others
/// do not, so a reading is mostly the kernel's own speed.
const PASSES: usize = 4;

/// How often a timed section reads the speedometer.
const INTERVAL: Duration = Duration::from_millis(20);

const ARRAYS: usize = 256;
const ARRAY_LEN: usize = 32;
const UNIVERSE: u64 = 1_024;

fn arrays() -> &'static [Vec<u32>] {
    static DATA: OnceLock<Vec<Vec<u32>>> = OnceLock::new();
    DATA.get_or_init(|| {
        // A fixed stream (a 64-bit LCG): the kernel does the same work in
        // every run of every seed.
        let mut state = 12_345u64;
        (0..ARRAYS)
            .map(|_| {
                let mut tokens: Vec<u32> = (0..ARRAY_LEN)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        ((state >> 33) % UNIVERSE) as u32
                    })
                    .collect();
                tokens.sort_unstable();
                tokens.dedup();
                tokens
            })
            .collect()
    })
}

/// One reading of the kernel: the nanoseconds its passes took.
pub fn probe_ns() -> u64 {
    let data = arrays();
    let start = Instant::now();
    let mut common = 0u32;
    let pairs = data.iter().zip(data.iter().cycle().skip(1));
    for (a, b) in std::iter::repeat_n(pairs, PASSES).flatten() {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    std::hint::black_box(common);
    start.elapsed().as_nanos() as u64
}

/// The kernel's cost right now: the median of a few readings.
pub fn spot_ns() -> f64 {
    let mut readings: Vec<u64> = (0..5).map(|_| probe_ns()).collect();
    readings.sort_unstable();
    crate::stats::percentile(&readings, 50.0) as f64
}

/// The factor that turns a time measured while the kernel cost
/// `kernel_ns` into reference-machine time. (A rate divides by it.)
pub fn to_reference(kernel_ns: f64) -> f64 {
    REFERENCE_NS / kernel_ns
}

/// Reads the kernel's cost every `INTERVAL` of a timed section.
#[derive(Debug, Default)]
pub struct Speedometer {
    due: Duration,
    /// `(time from the section start, kernel cost)`, nanoseconds.
    pub readings: Vec<(u64, u64)>,
}

impl Speedometer {
    /// Call between two operations, `elapsed` into the section: takes a
    /// reading if one is due, and says whether it did.
    pub fn tick(&mut self, elapsed: Duration) -> bool {
        let due = elapsed >= self.due;
        if due {
            self.readings.push((elapsed.as_nanos() as u64, probe_ns()));
            self.due = elapsed + INTERVAL;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_fixed_work_and_readings_keep_their_interval() {
        assert_eq!(arrays().len(), ARRAYS);
        assert!(arrays().iter().all(|a| a.windows(2).all(|w| w[0] < w[1])));
        assert!(probe_ns() > 0);
        let mut speed = Speedometer::default();
        for ms in 0..100 {
            speed.tick(Duration::from_millis(ms));
        }
        // Due at 0, then 20 ms after each reading.
        assert_eq!(speed.readings.len(), 5);
        assert!((to_reference(2.0 * REFERENCE_NS) - 0.5).abs() < 1e-12);
    }
}
