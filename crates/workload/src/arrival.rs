//! Open-loop arrival processes.

use serde::{Deserialize, Serialize};
use sizeless_engine::dist::Exponential;
use sizeless_engine::RngStream;

/// The arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalKind {
    /// Poisson arrivals: exponentially distributed inter-arrival times (the
    /// paper's dataset-generation workload).
    Poisson,
    /// Deterministic, evenly spaced arrivals.
    Constant,
}

/// An open-loop arrival process at a fixed mean rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalProcess {
    kind: ArrivalKind,
    rps: f64,
}

impl ArrivalProcess {
    /// Poisson arrivals at `rps` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rps` is strictly positive and finite.
    pub fn poisson(rps: f64) -> Self {
        assert!(rps > 0.0 && rps.is_finite(), "rate must be positive");
        ArrivalProcess {
            kind: ArrivalKind::Poisson,
            rps,
        }
    }

    /// Evenly spaced arrivals at `rps` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rps` is strictly positive and finite.
    pub fn constant(rps: f64) -> Self {
        assert!(rps > 0.0 && rps.is_finite(), "rate must be positive");
        ArrivalProcess {
            kind: ArrivalKind::Constant,
            rps,
        }
    }

    /// The mean request rate, per second.
    pub fn rps(&self) -> f64 {
        self.rps
    }

    /// The process kind.
    pub fn kind(&self) -> ArrivalKind {
        self.kind
    }

    /// Draws the gap (ms) to the next arrival — the incremental form of
    /// [`ArrivalProcess::arrivals_ms`] used by event-driven consumers (the
    /// fleet simulator schedules each arrival as it happens instead of
    /// materializing the whole trace).
    pub fn next_gap_ms(&self, rng: &mut RngStream) -> f64 {
        let mean_gap_ms = 1000.0 / self.rps;
        match self.kind {
            ArrivalKind::Poisson => Exponential::with_mean(mean_gap_ms)
                // lint: allow(panic002) reason="the request rate is validated positive at construction, so the mean gap is positive"
                .expect("positive mean")
                .sample(rng),
            ArrivalKind::Constant => mean_gap_ms,
        }
    }

    /// Generates all arrival instants (ms) in `[0, duration_ms)` — the
    /// batch form of [`ArrivalProcess::next_gap_ms`].
    pub fn arrivals_ms(&self, duration_ms: f64, rng: &mut RngStream) -> Vec<f64> {
        let mean_gap_ms = 1000.0 / self.rps;
        let mut out = Vec::with_capacity((duration_ms / mean_gap_ms) as usize + 8);
        let mut t = self.next_gap_ms(rng);
        while t < duration_ms {
            out.push(t);
            t += self.next_gap_ms(rng);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_converges() {
        let p = ArrivalProcess::poisson(30.0);
        let mut rng = RngStream::from_seed(1, "arr");
        let arrivals = p.arrivals_ms(600_000.0, &mut rng); // 10 min
        let rate = arrivals.len() as f64 / 600.0;
        assert!((rate - 30.0).abs() < 1.0, "rate={rate}");
    }

    #[test]
    fn poisson_gaps_look_exponential() {
        let p = ArrivalProcess::poisson(30.0);
        let mut rng = RngStream::from_seed(2, "arr2");
        let a = p.arrivals_ms(600_000.0, &mut rng);
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        // Exponential: std ≈ mean (CV ≈ 1).
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.08, "cv={cv}");
    }

    #[test]
    fn constant_gaps_are_fixed() {
        let p = ArrivalProcess::constant(10.0);
        let mut rng = RngStream::from_seed(3, "arr3");
        let a = p.arrivals_ms(10_000.0, &mut rng);
        assert_eq!(a.len(), 99); // t = 100, 200, ... 9900
        for w in a.windows(2) {
            assert!((w[1] - w[0] - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn arrivals_sorted_and_in_range() {
        let p = ArrivalProcess::poisson(50.0);
        let mut rng = RngStream::from_seed(4, "arr4");
        let a = p.arrivals_ms(30_000.0, &mut rng);
        for w in a.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(a.iter().all(|&t| (0.0..30_000.0).contains(&t)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = ArrivalProcess::poisson(0.0);
    }
}
