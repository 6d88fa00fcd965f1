//! The harness's own arithmetic: percentiles, medians, quartile spread
//! and slice throughput.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample (a latency metric with no samples is a
/// harness bug, not a measurement).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts nanosecond samples and returns `(p50, p99)` in microseconds.
pub fn p50_p99_us(samples: &mut [u64]) -> (f64, f64) {
    samples.sort_unstable();
    (
        percentile(samples, 50.0) as f64 / 1e3,
        percentile(samples, 99.0) as f64 / 1e3,
    )
}

/// Sorts nanosecond samples and returns the median in microseconds.
pub fn p50_us(samples: &mut [u64]) -> f64 {
    p50_p99_us(samples).0
}

/// Median of a float sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the rule BENCHMARK.json's
/// bounds are checked with). Zero for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        // The "exclusive" method: position i·(n+1)/4, interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// Of every hundred slices of a run, the one whose value the run reports:
/// the tenth best.
const QUIET_PERCENT: f64 = 10.0;

/// The value of a run's quiet slices: the nearest-rank `QUIET_PERCENT`-th
/// percentile of `values` counted from the better end (`lower_is_better`:
/// from the smallest).
///
/// On a shared host a neighbour slows the program down for seconds at a
/// time, never speeds it up, and how much of a run it disturbs differs
/// from run to run: a median over the slices follows the neighbour, a
/// slice near the better end follows the program. The very best slice
/// would follow luck instead (which queries fell into it), so it is the
/// tenth percentile, not the extreme; with fewer than eleven values the
/// two are the same.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quiet(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "no slices to choose from");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    let rank = ((QUIET_PERCENT / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The values of each of the `slices` equal time slices of a timed
/// section, ascending. `samples` are `(time from the section start,
/// value)`; a sample at or past the section end counts in the last slice.
pub fn by_slice(samples: &[(u64, u64)], section_ns: u64, slices: usize) -> Vec<Vec<u64>> {
    let slice_ns = (section_ns / slices as u64).max(1);
    let mut by_slice = vec![Vec::new(); slices];
    for &(at, value) in samples {
        by_slice[((at / slice_ns) as usize).min(slices - 1)].push(value);
    }
    for slice in &mut by_slice {
        slice.sort_unstable();
    }
    by_slice
}

/// Operations per second of each of the `slices` equal time slices of a
/// timed section. `ends_ns` are operation end times relative to the
/// section start; an operation that ended past the section counts nowhere.
pub fn slice_rates(ends_ns: &[u64], section_ns: u64, slices: usize) -> Vec<f64> {
    let slice_ns = (section_ns / slices as u64).max(1);
    let mut counts = vec![0u64; slices];
    for &end in ends_ns {
        if let Some(count) = counts.get_mut((end / slice_ns) as usize) {
            *count += 1;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 * 1e9 / slice_ns as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // Five values: rank ceil(0.5 * 5) = 3, ceil(0.99 * 5) = 5.
        let w = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&w, 50.0), 30);
        assert_eq!(percentile(&w, 99.0), 50);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[1.0, 2.0, 4.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn quiet_is_the_tenth_percentile_from_the_better_end() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(quiet(&v, true), 4.0);
        assert_eq!(quiet(&v, false), 37.0);
        // Ten values or fewer: the best one.
        assert_eq!(quiet(&[3.0, 1.0, 2.0], true), 1.0);
        assert_eq!(quiet(&[3.0, 1.0, 2.0], false), 3.0);
        // A neighbour that slows three quarters of the slices down by half
        // does not move it; the median follows the neighbour.
        let disturbed: Vec<f64> = (0..40)
            .map(|i| if i % 4 == 0 { 100.0 } else { 150.0 })
            .collect();
        assert_eq!(quiet(&disturbed, true), 100.0);
        assert_eq!(median(&disturbed), 150.0);
    }

    #[test]
    fn slices_keep_a_disturbed_stretch_to_itself() {
        // 4 slices of 1 s, 100 samples each: latencies 1..=100 everywhere,
        // except that the last slice was disturbed and took 10x as long.
        let mut samples = Vec::new();
        for slice in 0..4u64 {
            let scale = if slice == 3 { 10 } else { 1 };
            samples.extend((1..=100u64).map(|i| (slice * 1_000_000_000 + i, i * scale)));
        }
        let tails: Vec<f64> = by_slice(&samples, 4_000_000_000, 4)
            .iter()
            .map(|slice| percentile(slice, 99.0) as f64)
            .collect();
        assert_eq!(tails, [99.0, 99.0, 99.0, 990.0]);
        assert_eq!(quiet(&tails, true), 99.0);
        // The whole-section p99 would report the disturbed slice alone.
        let mut all: Vec<u64> = samples.iter().map(|s| s.1).collect();
        all.sort_unstable();
        assert_eq!(percentile(&all, 99.0), 960);
        // A sample at or past the section end counts in the last slice.
        let late = by_slice(&[(5_000_000_000, 7)], 4_000_000_000, 4);
        assert_eq!(late, [vec![], vec![], vec![], vec![7]]);
    }

    #[test]
    fn slice_rates_keep_a_stalled_slice_to_itself() {
        // 4 slices of 1 s; 10 ops end in each slice but the third, which
        // stalled and completed none.
        let mut ends = Vec::new();
        for slice in [0u64, 1, 3] {
            ends.extend((0..10).map(|i| slice * 1_000_000_000 + i * 1_000));
        }
        let rates = slice_rates(&ends, 4_000_000_000, 4);
        assert_eq!(rates, [10.0, 10.0, 0.0, 10.0]);
        assert_eq!(quiet(&rates, false), 10.0);
        // An operation that ended past the section counts nowhere.
        assert_eq!(slice_rates(&[4_000_000_001], 4_000_000_000, 4), [0.0; 4]);
    }
}
