//! Probability distributions used by the platform model.
//!
//! The measurement methodology of the paper drives each function at 30
//! requests per second with *exponentially distributed inter-arrival times*
//! ([`Exponential`]); cloud execution-time noise, managed-service latencies
//! and cold-start durations are right-skewed and strictly positive
//! ([`LogNormal`]).

use crate::rng::RngStream;

/// Exponential distribution with rate `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `rate` per millisecond.
    ///
    /// # Errors
    ///
    /// Returns `None` if `rate` is not strictly positive.
    pub fn new(rate: f64) -> Option<Self> {
        (rate > 0.0 && rate.is_finite()).then_some(Exponential { rate })
    }

    /// Creates an exponential distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns `None` if `mean` is not strictly positive.
    pub fn with_mean(mean: f64) -> Option<Self> {
        Self::new(1.0 / mean)
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut RngStream) -> f64 {
        // Inverse CDF; 1 - u ∈ (0, 1] avoids ln(0).
        -(1.0 - rng.next_f64()).ln() / self.rate
    }
}

/// Log-normal distribution parameterized by the *target* mean and the σ of
/// the underlying normal.
///
/// This is the workhorse execution-time noise model: multiplicative,
/// right-skewed, strictly positive — matching observed Lambda latency
/// distributions (Figiela et al. 2018).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal from the underlying normal's parameters.
    ///
    /// # Errors
    ///
    /// Returns `None` if `sigma` is negative or parameters are non-finite.
    pub fn new(mu: f64, sigma: f64) -> Option<Self> {
        (sigma >= 0.0 && mu.is_finite() && sigma.is_finite()).then_some(LogNormal { mu, sigma })
    }

    /// Creates a lognormal whose *distribution mean* is `mean`, with shape
    /// `sigma`. Useful for "multiply latency by noise with mean 1".
    ///
    /// # Errors
    ///
    /// Returns `None` if `mean` is not strictly positive or `sigma` invalid.
    pub fn with_mean(mean: f64, sigma: f64) -> Option<Self> {
        if mean.is_nan() || mean <= 0.0 || sigma < 0.0 || !sigma.is_finite() {
            return None;
        }
        Self::new(mean.ln() - sigma * sigma / 2.0, sigma)
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut RngStream) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(mut draw: impl FnMut(&mut RngStream) -> f64, n: usize, seed: u64) -> f64 {
        let mut rng = RngStream::from_seed(seed, "dist-test");
        (0..n).map(|_| draw(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(33.3).unwrap();
        let m = empirical_mean(|rng| d.sample(rng), 50_000, 1);
        assert!((m - 33.3).abs() / 33.3 < 0.03, "m={m}");
    }

    #[test]
    fn exponential_positive() {
        let d = Exponential::new(0.5).unwrap();
        let mut rng = RngStream::from_seed(2, "e");
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_none());
        assert!(Exponential::new(-1.0).is_none());
        assert!(Exponential::new(f64::NAN).is_none());
    }

    #[test]
    fn lognormal_with_mean_hits_target() {
        let d = LogNormal::with_mean(5.0, 0.4).unwrap();
        assert!((d.mean() - 5.0).abs() < 1e-9);
        let m = empirical_mean(|rng| d.sample(rng), 100_000, 4);
        assert!((m - 5.0).abs() / 5.0 < 0.03, "m={m}");
    }

    #[test]
    fn lognormal_strictly_positive() {
        let d = LogNormal::with_mean(1.0, 1.0).unwrap();
        let mut rng = RngStream::from_seed(5, "ln");
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn constructors_reject_invalid() {
        assert!(LogNormal::with_mean(0.0, 1.0).is_none());
    }
}
