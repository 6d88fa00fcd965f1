//! Sampling utilities shared by the generators.
//!
//! Implemented here (rather than pulling in `rand_distr`) to keep the
//! dependency set to the minimum allowed list; each sampler is a few lines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates the deterministic RNG used by all generators.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Standard normal sample via the Box–Muller transform.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal sample with the given underlying mean/stddev.
pub fn lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Samples a set size from a log-normal shaped to have mean ≈ `avg`,
/// clamped to `[min, max]`. Real set-size distributions (Table 2) are
/// heavy-tailed with small medians and large maxima; a log-normal with
/// σ = 1 reproduces that shape.
pub fn set_size(rng: &mut StdRng, avg: f64, min: usize, max: usize) -> usize {
    let sigma = 1.0;
    let mu = avg.max(1.0).ln() - sigma * sigma / 2.0; // E[LN(μ,σ)] = exp(μ+σ²/2)
    let s = lognormal(rng, mu, sigma).round() as i64;
    (s.max(min as i64) as usize).min(max)
}

/// A Zipf(α) sampler over ranks `0..n` using a precomputed CDF and binary
/// search — O(log n) per sample, O(n) memory.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `alpha ≥ 0`
    /// (`alpha = 0` is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-alpha);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Draws a rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the domain is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_complete() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = rng(1);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[500]);
        assert!(counts[0] > 1000, "head rank should dominate: {}", counts[0]);
    }

    #[test]
    fn zipf_alpha_zero_is_uniformish() {
        let z = Zipf::new(10, 0.0);
        let mut rng = rng(2);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!((*max as f64) / (*min as f64) < 1.25, "{counts:?}");
    }

    #[test]
    fn lognormal_set_size_has_requested_mean() {
        let mut r = rng(4);
        let n = 20_000;
        let sum: usize = (0..n).map(|_| set_size(&mut r, 10.0, 1, 1000)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 10.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng(6);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
