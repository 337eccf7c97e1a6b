//! Random sampling primitives.
//!
//! The paper samples every variation source inside the ±3σ limits given by
//! Nassif, so the workhorse here is a [`TruncatedNormal`]: a Gaussian
//! re-sampled until it lands within its truncation window. Box–Muller is
//! implemented directly to avoid pulling in a distributions crate.

use rand::Rng;

/// Draws one standard-normal variate using the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use yac_variation::dist::standard_normal;
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let z = standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller with a guard against log(0). Sampling is most of a
    // chip's cost (~14 µs of ~16 µs per chip single-threaded, the rest
    // being one circuit pass for both organisations), yet the second
    // variate of each pair is still discarded: keeping it would change
    // every random stream, so it belongs to the `rand` port item in
    // ROADMAP.md.
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// Draws from a Gumbel (extreme-value type I) distribution with location 0
/// and the given scale: `-scale · ln(-ln(U))`.
///
/// Used for the per-region worst-cell threshold excursion — the maximum of
/// very many per-cell random-dopant fluctuations follows extreme-value
/// statistics.
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use yac_variation::dist::gumbel;
///
/// let mut rng = SmallRng::seed_from_u64(3);
/// let x = gumbel(&mut rng, 8.0);
/// assert!(x.is_finite());
/// ```
pub fn gumbel<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    if scale == 0.0 {
        return 0.0;
    }
    loop {
        let u: f64 = rng.gen::<f64>();
        if u <= f64::MIN_POSITIVE || u >= 1.0 {
            continue;
        }
        let x = -scale * (-u.ln()).ln();
        if x.is_finite() {
            return x;
        }
    }
}

/// A normal distribution truncated to `[mean - limit, mean + limit]`.
///
/// Sampling uses simple rejection, which is efficient for the ±3σ windows
/// used throughout this crate (acceptance probability ≈ 99.7 %).
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use yac_variation::dist::TruncatedNormal;
///
/// let dist = TruncatedNormal::new(10.0, 2.0, 6.0);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let x = dist.sample(&mut rng);
/// assert!((4.0..=16.0).contains(&x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    mean: f64,
    sigma: f64,
    limit: f64,
}

impl TruncatedNormal {
    /// Creates a truncated normal centred at `mean` with standard deviation
    /// `sigma`, truncated at `mean ± limit`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` or `limit` is negative, or any argument is not
    /// finite.
    #[must_use]
    pub fn new(mean: f64, sigma: f64, limit: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite");
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be >= 0");
        assert!(limit.is_finite() && limit >= 0.0, "limit must be >= 0");
        TruncatedNormal { mean, sigma, limit }
    }

    /// A distribution whose truncation window is `mean ± 3σ`, the shape used
    /// by Table 1 of the paper.
    #[must_use]
    pub fn three_sigma(mean: f64, sigma: f64) -> Self {
        Self::new(mean, sigma, 3.0 * sigma)
    }

    /// The centre of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The (pre-truncation) standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Half-width of the truncation window.
    #[must_use]
    pub fn limit(&self) -> f64 {
        self.limit
    }

    /// Draws one sample.
    ///
    /// Degenerate distributions (`sigma == 0` or `limit == 0`) return the
    /// mean exactly.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 || self.limit == 0.0 {
            return self.mean;
        }
        // Rejection sampling: with limits at >= ~1 sigma this terminates
        // almost immediately; below that we fall back to clamping after a
        // bounded number of tries to keep sampling O(1) worst-case.
        const MAX_TRIES: u32 = 64;
        for _ in 0..MAX_TRIES {
            let x = self.mean + self.sigma * standard_normal(rng);
            if (x - self.mean).abs() <= self.limit {
                return x;
            }
        }
        let x = self.mean + self.sigma * standard_normal(rng);
        x.clamp(self.mean - self.limit, self.mean + self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_has_roughly_zero_mean_unit_variance() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn samples_respect_truncation_window() {
        let dist = TruncatedNormal::three_sigma(100.0, 5.0);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = dist.sample(&mut rng);
            assert!((85.0..=115.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn degenerate_sigma_returns_mean() {
        let dist = TruncatedNormal::new(3.5, 0.0, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(dist.sample(&mut rng), 3.5);
    }

    #[test]
    fn degenerate_limit_returns_mean() {
        let dist = TruncatedNormal::new(3.5, 1.0, 0.0);
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(dist.sample(&mut rng), 3.5);
    }

    #[test]
    fn tight_window_still_terminates() {
        // limit of 0.01 sigma: rejection would essentially always fail, the
        // clamping fallback must kick in.
        let dist = TruncatedNormal::new(0.0, 1.0, 0.01);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            let x = dist.sample(&mut rng);
            assert!(x.abs() <= 0.01 + 1e-12);
        }
    }

    #[test]
    fn sample_mean_tracks_distribution_mean() {
        let dist = TruncatedNormal::three_sigma(-4.0, 2.0);
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 20_000;
        let mean = (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean + 4.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn negative_sigma_panics() {
        let _ = TruncatedNormal::new(0.0, -1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "limit")]
    fn negative_limit_panics() {
        let _ = TruncatedNormal::new(0.0, 1.0, -1.0);
    }

    #[test]
    fn gumbel_is_right_skewed_with_expected_mean() {
        let mut rng = SmallRng::seed_from_u64(8);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gumbel(&mut rng, 10.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        // Gumbel(0, beta) has mean gamma*beta ~ 5.77.
        assert!((mean - 5.77).abs() < 0.5, "mean = {mean}");
        let above = samples.iter().filter(|&&x| x > mean).count();
        assert!(above < n / 2, "right-skew: fewer samples above the mean");
    }

    #[test]
    fn gumbel_zero_scale_is_degenerate() {
        let mut rng = SmallRng::seed_from_u64(8);
        assert_eq!(gumbel(&mut rng, 0.0), 0.0);
    }

    #[test]
    fn accessors_expose_construction_values() {
        let d = TruncatedNormal::new(1.0, 2.0, 5.0);
        assert_eq!(d.mean(), 1.0);
        assert_eq!(d.sigma(), 2.0);
        assert_eq!(d.limit(), 5.0);
    }
}
