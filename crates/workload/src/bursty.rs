//! Bursty arrivals: a two-state Markov-modulated Poisson process.
//!
//! The paper's limitations section discusses workload shifts — "the
//! workload becomes substantially burstier, which causes more cold starts".
//! This module provides the bursty arrival process used to study that
//! scenario: the process alternates between a *base* state and a *burst*
//! state with exponentially distributed sojourn times, emitting Poisson
//! arrivals at a state-dependent rate.

use serde::{Deserialize, Serialize};
use sizeless_engine::dist::Exponential;
use sizeless_engine::RngStream;

/// A two-state Markov-modulated Poisson arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstyArrival {
    /// Request rate in the base state, rps.
    pub base_rps: f64,
    /// Request rate in the burst state, rps.
    pub burst_rps: f64,
    /// Mean sojourn time in the base state, ms.
    pub mean_base_ms: f64,
    /// Mean sojourn time in the burst state, ms.
    pub mean_burst_ms: f64,
}

impl BurstyArrival {
    /// Creates a bursty process.
    ///
    /// # Panics
    ///
    /// Panics unless all rates and sojourn times are strictly positive.
    pub fn new(base_rps: f64, burst_rps: f64, mean_base_ms: f64, mean_burst_ms: f64) -> Self {
        assert!(
            base_rps > 0.0 && burst_rps > 0.0 && mean_base_ms > 0.0 && mean_burst_ms > 0.0,
            "rates and sojourn times must be positive"
        );
        BurstyArrival {
            base_rps,
            burst_rps,
            mean_base_ms,
            mean_burst_ms,
        }
    }

    /// The long-run average rate, rps.
    pub fn mean_rps(&self) -> f64 {
        let total = self.mean_base_ms + self.mean_burst_ms;
        (self.base_rps * self.mean_base_ms + self.burst_rps * self.mean_burst_ms) / total
    }

    /// Generates all arrival instants (ms) in `[0, duration_ms)` — the
    /// batch form of [`BurstyArrival::sampler`], sharing its state machine
    /// so the two APIs agree by construction.
    pub fn arrivals_ms(&self, duration_ms: f64, rng: &mut RngStream) -> Vec<f64> {
        let mut sampler = self.sampler(rng);
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += sampler.next_gap_ms(rng);
            if t >= duration_ms {
                return out;
            }
            out.push(t);
        }
    }

    /// Creates an incremental sampler over this process. The sampler draws
    /// from `rng` in exactly the order [`BurstyArrival::arrivals_ms`] does,
    /// so the arrival instants it produces match the batch API — it exists
    /// for event-driven consumers (the fleet simulator) that schedule one
    /// arrival at a time.
    pub fn sampler(&self, rng: &mut RngStream) -> BurstySampler {
        let state_end = Exponential::with_mean(self.mean_base_ms)
            // lint: allow(panic002) reason="MMPP sojourn parameters are validated positive at construction"
            .expect("positive sojourn")
            .sample(rng);
        BurstySampler {
            process: *self,
            t: 0.0,
            in_burst: false,
            state_end,
        }
    }

    /// Index of dispersion of counts over windows of `window_ms` — the
    /// burstiness measure (1.0 for pure Poisson, > 1 for bursty traffic).
    pub fn dispersion(arrivals: &[f64], duration_ms: f64, window_ms: f64) -> f64 {
        assert!(window_ms > 0.0 && duration_ms >= window_ms, "bad window");
        let windows = (duration_ms / window_ms) as usize;
        let mut counts = vec![0.0f64; windows];
        for &a in arrivals {
            let w = (a / window_ms) as usize;
            if w < windows {
                counts[w] += 1.0;
            }
        }
        let mean = counts.iter().sum::<f64>() / windows as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var =
            counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / windows as f64;
        var / mean
    }
}

/// Incremental state of a [`BurstyArrival`] process: tracks the current
/// modulation state and its end so gaps can be drawn one arrival at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstySampler {
    process: BurstyArrival,
    /// Absolute time of the previous arrival (or 0 at the start).
    t: f64,
    in_burst: bool,
    state_end: f64,
}

impl BurstySampler {
    /// Draws the gap (ms) between the previous arrival and the next one,
    /// advancing through state switches as needed.
    pub fn next_gap_ms(&mut self, rng: &mut RngStream) -> f64 {
        let base_gap =
            // lint: allow(panic002) reason="MMPP parameters are validated positive at construction"
            Exponential::with_mean(1000.0 / self.process.base_rps).expect("positive rate");
        let burst_gap =
            // lint: allow(panic002) reason="MMPP parameters are validated positive at construction"
            Exponential::with_mean(1000.0 / self.process.burst_rps).expect("positive rate");
        let base_sojourn =
            // lint: allow(panic002) reason="MMPP parameters are validated positive at construction"
            Exponential::with_mean(self.process.mean_base_ms).expect("positive sojourn");
        let burst_sojourn =
            // lint: allow(panic002) reason="MMPP parameters are validated positive at construction"
            Exponential::with_mean(self.process.mean_burst_ms).expect("positive sojourn");

        let prev = self.t;
        loop {
            let gap = if self.in_burst {
                burst_gap.sample(rng)
            } else {
                base_gap.sample(rng)
            };
            if self.t + gap < self.state_end {
                self.t += gap;
                return self.t - prev;
            }
            // State switch wins the race; by memorylessness of the
            // exponential the pending gap can simply be discarded.
            self.t = self.state_end;
            self.in_burst = !self.in_burst;
            self.state_end += if self.in_burst {
                burst_sojourn.sample(rng)
            } else {
                base_sojourn.sample(rng)
            };
        }
    }

    /// Whether the process is currently in the burst state.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;

    fn bursty() -> BurstyArrival {
        BurstyArrival::new(5.0, 80.0, 20_000.0, 2_000.0)
    }

    #[test]
    fn mean_rate_matches_mixture() {
        let b = bursty();
        // (5·20 + 80·2) / 22 ≈ 11.8 rps.
        assert!((b.mean_rps() - 260.0 / 22.0).abs() < 1e-9);
        let mut rng = RngStream::from_seed(1, "bursty");
        let arrivals = b.arrivals_ms(600_000.0, &mut rng);
        let rate = arrivals.len() as f64 / 600.0;
        assert!((rate - b.mean_rps()).abs() / b.mean_rps() < 0.15, "rate={rate}");
    }

    #[test]
    fn burstier_than_poisson() {
        let b = bursty();
        let mut rng = RngStream::from_seed(2, "bursty-disp");
        let duration = 600_000.0;
        let bursty_arr = b.arrivals_ms(duration, &mut rng);
        let poisson_arr =
            ArrivalProcess::poisson(b.mean_rps()).arrivals_ms(duration, &mut rng);

        let d_bursty = BurstyArrival::dispersion(&bursty_arr, duration, 1_000.0);
        let d_poisson = BurstyArrival::dispersion(&poisson_arr, duration, 1_000.0);
        assert!((0.7..1.5).contains(&d_poisson), "poisson dispersion {d_poisson}");
        assert!(d_bursty > 2.0 * d_poisson, "bursty {d_bursty} vs poisson {d_poisson}");
    }

    #[test]
    fn arrivals_sorted_and_bounded() {
        let b = bursty();
        let mut rng = RngStream::from_seed(3, "bursty-sort");
        let arr = b.arrivals_ms(60_000.0, &mut rng);
        for w in arr.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(arr.iter().all(|&t| (0.0..60_000.0).contains(&t)));
    }

    #[test]
    fn deterministic_per_seed() {
        let b = bursty();
        let gen = |seed| {
            let mut rng = RngStream::from_seed(seed, "bursty-det");
            b.arrivals_ms(30_000.0, &mut rng)
        };
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = BurstyArrival::new(0.0, 10.0, 100.0, 100.0);
    }

    #[test]
    fn sampler_matches_batch_arrivals() {
        let b = bursty();
        let duration = 120_000.0;
        let mut batch_rng = RngStream::from_seed(21, "bursty-eq");
        let batch = b.arrivals_ms(duration, &mut batch_rng);

        let mut inc_rng = RngStream::from_seed(21, "bursty-eq");
        let mut sampler = b.sampler(&mut inc_rng);
        let mut incremental = Vec::new();
        let mut t = 0.0;
        loop {
            t += sampler.next_gap_ms(&mut inc_rng);
            if t >= duration {
                break;
            }
            incremental.push(t);
        }
        assert_eq!(batch, incremental);
    }

    #[test]
    fn poisson_gap_sampler_matches_batch() {
        let p = ArrivalProcess::poisson(20.0);
        let duration = 60_000.0;
        let mut batch_rng = RngStream::from_seed(5, "arr-eq");
        let batch = p.arrivals_ms(duration, &mut batch_rng);

        let mut inc_rng = RngStream::from_seed(5, "arr-eq");
        let mut incremental = Vec::new();
        let mut t = p.next_gap_ms(&mut inc_rng);
        while t < duration {
            incremental.push(t);
            t += p.next_gap_ms(&mut inc_rng);
        }
        assert_eq!(batch, incremental);
    }
}
