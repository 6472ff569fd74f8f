//! Pluggable keep-alive: how long a released instance stays warm.
//!
//! The policy trades wasted memory-time against cold starts. Three
//! baselines:
//!
//! * [`NoKeepAlive`] — reclaim immediately (minimal waste, maximal cold
//!   starts);
//! * [`FixedTtl`] — the seed platform's behaviour: a constant idle TTL
//!   (Lambda's ~10 minutes), maximal waste under sparse traffic;
//! * [`AdaptiveKeepAlive`] — a histogram-based policy in the spirit of the
//!   hybrid policy of Shahrad et al. (ATC'20, "Serverless in the Wild"):
//!   per function, track recent inter-arrival gaps and keep instances warm
//!   just long enough to cover most observed gaps.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Decides the keep-alive window applied when an instance is released.
///
/// The fleet calls [`KeepAlivePolicy::observe_arrival`] for every request
/// (throttled or not — the policy sees demand, not admission) and
/// [`KeepAlivePolicy::ttl_ms`] at each completion.
pub trait KeepAlivePolicy {
    /// Records that a request for `fn_id` arrived at `now_ms`.
    fn observe_arrival(&mut self, fn_id: usize, now_ms: f64);

    /// Records that an invocation of `fn_id` paid a cold start of
    /// `init_ms` — lets cost-aware policies weigh idle memory-time against
    /// re-initialization. Default: ignored.
    fn observe_cold_start(&mut self, _fn_id: usize, _init_ms: f64) {}

    /// The keep-alive window to apply to an instance of `fn_id` released
    /// now, ms.
    fn ttl_ms(&mut self, fn_id: usize) -> f64;

    /// The policy's display name.
    fn name(&self) -> &'static str;
}

/// Reclaim instances the moment they finish.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoKeepAlive;

impl KeepAlivePolicy for NoKeepAlive {
    fn observe_arrival(&mut self, _fn_id: usize, _now_ms: f64) {}

    fn ttl_ms(&mut self, _fn_id: usize) -> f64 {
        0.0
    }

    fn name(&self) -> &'static str {
        "no-keepalive"
    }
}

/// A constant idle TTL for every instance (the seed `WarmPool` semantics).
#[derive(Debug, Clone, Copy)]
pub struct FixedTtl {
    ttl_ms: f64,
}

impl FixedTtl {
    /// A fixed window of `ttl_ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics unless the TTL is strictly positive.
    pub fn new(ttl_ms: f64) -> Self {
        assert!(ttl_ms > 0.0, "fixed TTL must be positive");
        FixedTtl { ttl_ms }
    }
}

impl KeepAlivePolicy for FixedTtl {
    fn observe_arrival(&mut self, _fn_id: usize, _now_ms: f64) {}

    fn ttl_ms(&mut self, _fn_id: usize) -> f64 {
        self.ttl_ms
    }

    fn name(&self) -> &'static str {
        "fixed-ttl"
    }
}

/// How many inter-arrival gaps each function's history retains.
const GAP_HISTORY: usize = 128;
/// Observations required before the policy trusts its histogram.
const MIN_OBSERVATIONS: usize = 8;
/// The adaptive policy's shortest window, ms.
const MIN_TTL_MS: f64 = 250.0;
/// The inter-arrival gap quantile the adaptive window covers.
const GAP_QUANTILE: f64 = 0.95;
/// The margin the adaptive window adds on top of the gap quantile.
const GAP_MARGIN: f64 = 1.5;
/// How many init times the gap quantile may span before keeping an
/// instance warm costs more than the cold starts it avoids.
const KEEP_FACTOR: f64 = 5.0;

#[derive(Debug, Clone, Default)]
struct FnHistory {
    last_arrival_ms: Option<f64>,
    /// Ring buffer of the most recent inter-arrival gaps, ms.
    gaps: Vec<f64>,
    next: usize,
    /// `gaps` as a sorted multiset, maintained incrementally: each arrival
    /// does one O(log n) search plus an O(n) shift of ≤ [`GAP_HISTORY`]
    /// floats, instead of the O(n log n) re-sort per completion the policy
    /// originally paid. `total_cmp` is a total order, so the maintained
    /// array is bit-identical to a full re-sort of `gaps` at any point.
    sorted: Vec<f64>,
}

impl FnHistory {
    fn observe(&mut self, now_ms: f64) {
        if let Some(last) = self.last_arrival_ms {
            let gap = now_ms - last;
            if self.gaps.len() < GAP_HISTORY {
                if self.gaps.is_empty() {
                    // One-time warmup allocation: full history for both
                    // copies, so the steady-state path never reallocates.
                    self.gaps.reserve(GAP_HISTORY);
                    self.sorted.reserve(GAP_HISTORY);
                }
                self.gaps.push(gap);
            } else {
                let old = self.gaps[self.next];
                self.gaps[self.next] = gap;
                self.next = (self.next + 1) % GAP_HISTORY;
                let at = self.sorted.partition_point(|g| g.total_cmp(&old).is_lt());
                self.sorted.remove(at);
            }
            let at = self.sorted.partition_point(|g| g.total_cmp(&gap).is_lt());
            self.sorted.insert(at, gap);
        }
        self.last_arrival_ms = Some(now_ms);
    }

    fn quantile(&self, q: f64) -> f64 {
        let idx = ((self.sorted.len() - 1) as f64 * q).ceil() as usize;
        self.sorted[idx]
    }
}

/// Keep instances warm just long enough to cover the bulk of each
/// function's recently observed inter-arrival gaps — but only when that
/// is cheaper than re-initializing.
///
/// Until a function has `MIN_OBSERVATIONS` (8) gaps, the policy stays
/// conservative and uses `max_ttl_ms` (the fixed-TTL behaviour). After
/// that the candidate window is 1.5 × the 95th-percentile gap, clamped to
/// `[250 ms, max_ttl_ms]`. A cost check then compares the candidate
/// against the function's observed mean initialization time: when the
/// quantile gap exceeds 5 × the init estimate, covering it would waste
/// more memory-time idling than the avoided cold start costs, so the
/// policy falls back to a ski-rental window equal to the init estimate
/// itself (pay at most one init's worth of idle before giving up — the
/// classic 2-competitive choice). Sparse functions thus converge
/// toward no-keepalive while hot ones stay warm, which is what lets the
/// policy dominate both fixed baselines on resource footprint.
#[derive(Debug, Clone)]
pub struct AdaptiveKeepAlive {
    max_ttl_ms: f64,
    histories: Vec<FnHistory>,
    /// Running mean of observed init times per function; 0 = none seen.
    init_est_ms: Vec<f64>,
    init_count: Vec<usize>,
}

impl AdaptiveKeepAlive {
    /// The default adaptive policy for `functions` functions, bounded
    /// above by `max_ttl_ms` (use the platform's fixed idle TTL): covers
    /// the 95th-percentile gap with a 1.5× margin, floor of 250 ms, and
    /// gives up on keeping warm when the gap quantile exceeds 5× the
    /// observed init time.
    ///
    /// # Panics
    ///
    /// Panics unless `max_ttl_ms >= 250`.
    pub fn new(functions: usize, max_ttl_ms: f64) -> Self {
        assert!(
            max_ttl_ms >= MIN_TTL_MS,
            "the max TTL must be at least the 250 ms floor"
        );
        AdaptiveKeepAlive {
            max_ttl_ms,
            histories: vec![FnHistory::default(); functions],
            init_est_ms: vec![0.0; functions],
            init_count: vec![0; functions],
        }
    }
}

impl KeepAlivePolicy for AdaptiveKeepAlive {
    fn observe_arrival(&mut self, fn_id: usize, now_ms: f64) {
        self.histories[fn_id].observe(now_ms);
    }

    fn observe_cold_start(&mut self, fn_id: usize, init_ms: f64) {
        self.init_count[fn_id] += 1;
        let n = self.init_count[fn_id] as f64;
        self.init_est_ms[fn_id] += (init_ms - self.init_est_ms[fn_id]) / n;
    }

    fn ttl_ms(&mut self, fn_id: usize) -> f64 {
        let h = &self.histories[fn_id];
        let init = self.init_est_ms[fn_id];
        // Ski-rental window: pay at most ~one init's worth of idle before
        // giving an instance up (2-competitive without gap knowledge).
        let ski_rental = if init > 0.0 {
            init.clamp(MIN_TTL_MS, self.max_ttl_ms)
        } else {
            self.max_ttl_ms
        };
        if h.gaps.len() < MIN_OBSERVATIONS {
            return ski_rental;
        }
        let gap_q = h.quantile(GAP_QUANTILE);
        if init > 0.0 && gap_q > KEEP_FACTOR * init {
            // Covering the gap quantile costs more idle memory-time than
            // the cold starts it avoids.
            ski_rental
        } else {
            (GAP_MARGIN * gap_q).clamp(MIN_TTL_MS, self.max_ttl_ms)
        }
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

/// The built-in keep-alive policies, for sweeps and configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeepAliveKind {
    /// [`NoKeepAlive`].
    NoKeepAlive,
    /// [`FixedTtl`] at the platform's idle TTL.
    FixedTtl,
    /// [`AdaptiveKeepAlive`] bounded by the platform's idle TTL.
    Adaptive,
}

impl KeepAliveKind {
    /// All built-in policies, in sweep order.
    pub const ALL: [KeepAliveKind; 3] = [
        KeepAliveKind::NoKeepAlive,
        KeepAliveKind::FixedTtl,
        KeepAliveKind::Adaptive,
    ];

    /// Instantiates the policy for `functions` functions with the
    /// platform's default idle TTL as the fixed/maximum window.
    pub fn build(self, functions: usize, default_ttl_ms: f64) -> Box<dyn KeepAlivePolicy> {
        match self {
            KeepAliveKind::NoKeepAlive => Box::new(NoKeepAlive),
            KeepAliveKind::FixedTtl => Box::new(FixedTtl::new(default_ttl_ms)),
            KeepAliveKind::Adaptive => Box::new(AdaptiveKeepAlive::new(functions, default_ttl_ms)),
        }
    }
}

// Spellings must match the built policies' `name()`s (guarded by a test).
impl fmt::Display for KeepAliveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KeepAliveKind::NoKeepAlive => "no-keepalive",
            KeepAliveKind::FixedTtl => "fixed-ttl",
            KeepAliveKind::Adaptive => "adaptive",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_keepalive_is_zero() {
        assert_eq!(NoKeepAlive.ttl_ms(0), 0.0);
    }

    #[test]
    fn fixed_is_constant() {
        let mut p = FixedTtl::new(600_000.0);
        p.observe_arrival(0, 1.0);
        assert_eq!(p.ttl_ms(0), 600_000.0);
    }

    #[test]
    fn adaptive_starts_conservative_then_tracks_gaps() {
        let mut p = AdaptiveKeepAlive::new(1, 600_000.0);
        assert_eq!(p.ttl_ms(0), 600_000.0, "no data yet");
        // Steady 100 ms gaps: the window should shrink to ~150 ms... but
        // never below the 250 ms floor.
        for i in 0..40 {
            p.observe_arrival(0, i as f64 * 100.0);
        }
        assert_eq!(p.ttl_ms(0), 250.0);
        // 30-second gaps: window ≈ 1.5 × 30 s = 45 s.
        let mut sparse = AdaptiveKeepAlive::new(1, 600_000.0);
        for i in 0..40 {
            sparse.observe_arrival(0, i as f64 * 30_000.0);
        }
        let ttl = sparse.ttl_ms(0);
        assert!((ttl - 45_000.0).abs() < 1.0, "ttl={ttl}");
    }

    #[test]
    fn adaptive_windows_are_per_function() {
        let mut p = AdaptiveKeepAlive::new(2, 600_000.0);
        for i in 0..40 {
            p.observe_arrival(0, i as f64 * 30_000.0);
        }
        assert!(p.ttl_ms(0) < 600_000.0);
        assert_eq!(p.ttl_ms(1), 600_000.0, "function 1 has no history");
    }

    #[test]
    fn adaptive_ring_buffer_forgets_old_gaps() {
        let mut p = AdaptiveKeepAlive::new(1, 600_000.0);
        let mut t = 0.0;
        // Old regime: 60 s gaps; new regime: 2 s gaps for a full window.
        for _ in 0..10 {
            t += 60_000.0;
            p.observe_arrival(0, t);
        }
        for _ in 0..GAP_HISTORY {
            t += 2_000.0;
            p.observe_arrival(0, t);
        }
        let ttl = p.ttl_ms(0);
        assert!((ttl - 3_000.0).abs() < 1.0, "ttl={ttl}");
    }

    #[test]
    fn cost_check_falls_back_to_ski_rental_window() {
        let mut p = AdaptiveKeepAlive::new(1, 600_000.0);
        // 30 s gaps with a 400 ms init: covering the 95th-percentile gap
        // would idle ~75× the init time — not worth it.
        for i in 0..40 {
            p.observe_arrival(0, i as f64 * 30_000.0);
        }
        p.observe_cold_start(0, 400.0);
        assert_eq!(p.ttl_ms(0), 400.0, "ski-rental window = init estimate");
        // The same gaps with a 30 s init: keeping warm is the cheap side.
        let mut hot = AdaptiveKeepAlive::new(1, 600_000.0);
        for i in 0..40 {
            hot.observe_arrival(0, i as f64 * 30_000.0);
        }
        hot.observe_cold_start(0, 30_000.0);
        let ttl = hot.ttl_ms(0);
        assert!((ttl - 45_000.0).abs() < 1.0, "ttl={ttl}");
    }

    #[test]
    fn kinds_display_policy_names() {
        for kind in KeepAliveKind::ALL {
            assert_eq!(kind.to_string(), kind.build(1, 600_000.0).name());
        }
    }
}
