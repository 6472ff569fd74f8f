//! Pluggable placement: which host serves the next invocation.
//!
//! The scheduler sees the whole fleet and picks a host for each request
//! (or reports that no host can serve it). Four baselines are provided,
//! mirroring the invoker-selection policies of serverless simulators like
//! dslab-faas: warm-first, least-loaded, round-robin, and random-fit.

use crate::host::Host;
use serde::{Deserialize, Serialize};
use sizeless_engine::RngStream;
use std::fmt;

/// Picks the host that serves an invocation.
///
/// Implementations may mutate internal state (cursors, histories) and may
/// draw from `rng` — the fleet hands every scheduler the same named stream
/// so runs stay reproducible.
pub trait Scheduler {
    /// Returns the index of the host to place the request on, or `None`
    /// when no host is feasible (the request is then throttled).
    fn select_host(
        &mut self,
        fn_id: usize,
        mem_mb: f64,
        hosts: &mut [Host],
        now_ms: f64,
        rng: &mut RngStream,
    ) -> Option<usize>;

    /// The policy's display name.
    fn name(&self) -> &'static str;
}

/// Prefer any host holding a warm instance of the function; fall back to
/// the least-loaded feasible host. This is the locality-preserving policy
/// a FaaS control plane typically approximates with sticky routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmFirst;

impl Scheduler for WarmFirst {
    fn select_host(
        &mut self,
        fn_id: usize,
        mem_mb: f64,
        hosts: &mut [Host],
        now_ms: f64,
        _rng: &mut RngStream,
    ) -> Option<usize> {
        (0..hosts.len())
            .find(|&i| hosts[i].warm_idle(fn_id, now_ms) > 0)
            .or_else(|| least_loaded_feasible(fn_id, mem_mb, hosts, now_ms))
    }

    fn name(&self) -> &'static str {
        "warm-first"
    }
}

fn least_loaded_feasible(
    fn_id: usize,
    mem_mb: f64,
    hosts: &mut [Host],
    now_ms: f64,
) -> Option<usize> {
    // One pass: feasibility and load both reap the pools, so compute the
    // load once per feasible host instead of re-scanning inside a min_by.
    // Ties keep the lowest host index (deterministic).
    let mut best: Option<(usize, f64)> = None;
    for (i, host) in hosts.iter_mut().enumerate() {
        if !host.feasible(fn_id, mem_mb, now_ms) {
            continue;
        }
        let load = host.load(now_ms);
        if best.is_none_or(|(_, b)| load < b) {
            best = Some((i, load));
        }
    }
    best.map(|(i, _)| i)
}

/// Pick the feasible host with the lowest committed-memory fraction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl Scheduler for LeastLoaded {
    fn select_host(
        &mut self,
        fn_id: usize,
        mem_mb: f64,
        hosts: &mut [Host],
        now_ms: f64,
        _rng: &mut RngStream,
    ) -> Option<usize> {
        least_loaded_feasible(fn_id, mem_mb, hosts, now_ms)
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Cycle through hosts, placing on the first feasible one after the cursor.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl Scheduler for RoundRobin {
    fn select_host(
        &mut self,
        fn_id: usize,
        mem_mb: f64,
        hosts: &mut [Host],
        now_ms: f64,
        _rng: &mut RngStream,
    ) -> Option<usize> {
        let n = hosts.len();
        for offset in 0..n {
            let i = (self.cursor + offset) % n;
            if hosts[i].feasible(fn_id, mem_mb, now_ms) {
                self.cursor = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Place on a uniformly random feasible host — the locality-blind baseline
/// the warm-first comparison is measured against.
#[derive(Debug, Clone, Default)]
pub struct RandomFit {
    /// Feasible-host scratch, reused across selections so the per-dispatch
    /// path allocates at most once (at the fleet's host count) per run.
    scratch: Vec<usize>,
}

impl Scheduler for RandomFit {
    fn select_host(
        &mut self,
        fn_id: usize,
        mem_mb: f64,
        hosts: &mut [Host],
        now_ms: f64,
        rng: &mut RngStream,
    ) -> Option<usize> {
        self.scratch.clear();
        self.scratch.reserve(hosts.len());
        for (i, host) in hosts.iter_mut().enumerate() {
            if host.feasible(fn_id, mem_mb, now_ms) {
                self.scratch.push(i);
            }
        }
        if self.scratch.is_empty() {
            None
        } else {
            Some(*rng.choose(&self.scratch))
        }
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// The built-in scheduling policies, for sweeps and configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// [`WarmFirst`].
    WarmFirst,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`RoundRobin`].
    RoundRobin,
    /// [`RandomFit`].
    Random,
}

impl SchedulerKind {
    /// All built-in policies, in sweep order.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::WarmFirst,
        SchedulerKind::LeastLoaded,
        SchedulerKind::RoundRobin,
        SchedulerKind::Random,
    ];

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::WarmFirst => Box::new(WarmFirst),
            SchedulerKind::LeastLoaded => Box::new(LeastLoaded),
            SchedulerKind::RoundRobin => Box::new(RoundRobin::default()),
            SchedulerKind::Random => Box::new(RandomFit::default()),
        }
    }
}

// Spellings must match the built policies' `name()`s (guarded by a test).
impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SchedulerKind::WarmFirst => "warm-first",
            SchedulerKind::LeastLoaded => "least-loaded",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::Random => "random",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: f64 = 60_000.0;

    fn fleet_of(n: usize) -> Vec<Host> {
        (0..n).map(|i| Host::new(i, 1024.0)).collect()
    }

    fn rng() -> RngStream {
        RngStream::from_seed(1, "sched-test")
    }

    #[test]
    fn warm_first_prefers_warm_host() {
        let mut hosts = fleet_of(3);
        let (id, _, _) = hosts[2].try_begin(0, 256.0, TTL, 0.0).unwrap();
        hosts[2].complete(0, id, 10.0, TTL, 10.0);
        let mut s = WarmFirst;
        assert_eq!(s.select_host(0, 256.0, &mut hosts, 20.0, &mut rng()), Some(2));
        // A function with no warm instance falls back to least-loaded.
        let pick = s.select_host(1, 256.0, &mut hosts, 20.0, &mut rng()).unwrap();
        assert_ne!(pick, 2);
    }

    #[test]
    fn least_loaded_balances() {
        let mut hosts = fleet_of(2);
        let _ = hosts[0].try_begin(0, 512.0, TTL, 0.0).unwrap();
        let mut s = LeastLoaded;
        assert_eq!(s.select_host(0, 256.0, &mut hosts, 1.0, &mut rng()), Some(1));
    }

    #[test]
    fn round_robin_cycles() {
        let mut hosts = fleet_of(3);
        let mut s = RoundRobin::default();
        let picks: Vec<usize> = (0..6)
            .map(|_| s.select_host(0, 256.0, &mut hosts, 0.0, &mut rng()).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_only_picks_feasible() {
        let mut hosts = fleet_of(2);
        // Fill host 0 completely with busy instances.
        let _ = hosts[0].try_begin(0, 1024.0, TTL, 0.0).unwrap();
        let mut s = RandomFit::default();
        let mut r = rng();
        for _ in 0..20 {
            assert_eq!(s.select_host(0, 512.0, &mut hosts, 1.0, &mut r), Some(1));
        }
    }

    #[test]
    fn no_feasible_host_reports_none() {
        let mut hosts = fleet_of(2);
        for h in hosts.iter_mut() {
            let _ = h.try_begin(0, 1024.0, TTL, 0.0).unwrap();
        }
        for kind in SchedulerKind::ALL {
            let mut s = kind.build();
            assert_eq!(s.select_host(0, 512.0, &mut hosts, 1.0, &mut rng()), None);
        }
    }

    #[test]
    fn kinds_display_policy_names() {
        for kind in SchedulerKind::ALL {
            assert_eq!(kind.to_string(), kind.build().name());
        }
    }
}
