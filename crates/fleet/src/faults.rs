//! Deterministic fault injection and resilience policies.
//!
//! The paper evaluates its sizing loop on a platform where nothing ever
//! fails; this module supplies the failure modes a production fleet has to
//! absorb — and keeps them *deterministic*, so a faulted run is as
//! byte-reproducible as a clean one:
//!
//! * [`FaultPlan`] — a declarative schedule of host crashes (scheduled, or
//!   drawn from a seeded Poisson process), transient invocation faults
//!   (init failures, mid-exec crashes), post-crash recovery slowdowns, and
//!   region outages for the merged multi-region loop. Every stochastic
//!   choice draws from named [`RngStream`]s derived from the plan's own
//!   seed, so installing a plan never perturbs the arrival, execution,
//!   scheduler, or monitor streams of the underlying run.
//! * [`RetryKind`] — how the fleet reacts to a failed attempt: give up,
//!   retry on a fixed delay, or back off exponentially with deterministic
//!   jitter and per-function retry budgets.
//!
//! Semantics of a host crash: every warm generation on the host is lost,
//! in-flight invocations fail (observed by the client at their originally
//! scheduled response time), and the host rejoins after its downtime with
//! completely cold pools — optionally slowed down for a recovery interval,
//! which is exactly the latency cliff that poisons a naive drift detector.

use sizeless_engine::RngStream;

/// A scheduled crash of one host: at `at_ms` the host drops every pool and
/// fails its in-flight work; it rejoins (cold) at `at_ms + down_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCrash {
    /// Index of the host in the fleet.
    pub host: usize,
    /// Virtual time of the crash, ms.
    pub at_ms: f64,
    /// Downtime before the host rejoins, ms.
    pub down_ms: f64,
}

/// A stochastic crash process: each host independently crashes with
/// exponentially distributed uptime of mean `mtbf_ms`, staying down for
/// `down_ms` each time. Crash times are drawn from per-host streams named
/// `"crashes/{host}"` under the plan's seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashProcess {
    /// Mean time between failures (mean uptime between crashes), ms.
    pub mtbf_ms: f64,
    /// Downtime per crash, ms.
    pub down_ms: f64,
}

/// Per-attempt transient invocation faults, drawn on the plan's
/// `"faults"/"transient"` stream at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientFaults {
    /// Probability that a *cold* attempt fails during initialization.
    pub init_failure_p: f64,
    /// Probability that an attempt crashes mid-execution.
    pub exec_failure_p: f64,
    /// Fraction of the execution duration that elapses before a mid-exec
    /// crash is observed, in `[0, 1]`.
    pub failure_duration_frac: f64,
}

/// Post-rejoin recovery behavior: for `recovery_ms` after a crashed host
/// rejoins, invocations placed on it run `slowdown`× slower (duration,
/// CPU usage, and billing all scale) — the crash-induced latency spike a
/// drift detector must not mistake for workload drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recovery {
    /// Length of the degraded window after rejoin, ms.
    pub recovery_ms: f64,
    /// Execution-time multiplier during recovery, `>= 1`.
    pub slowdown: f64,
}

/// A scheduled outage of one region in a multi-region run: every host in
/// the region crashes at `at_ms` and rejoins at `at_ms + down_ms`. While
/// the outage lasts, arrivals either fail over to a healthy region (the
/// default) or shed locally via 429 throttling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionOutage {
    /// Index of the region in the `RegionSpec` slice.
    pub region: usize,
    /// Virtual time the outage begins, ms.
    pub at_ms: f64,
    /// Outage duration, ms.
    pub down_ms: f64,
}

/// A deterministic fault schedule for a fleet (or multi-region) run.
///
/// Built either programmatically (builder methods) or from the compact
/// textual spec accepted by the bench binaries' `--faults` flag (see
/// [`FaultPlan::parse`]). Identical plan + seed ⇒ byte-identical reports
/// and traces, at any dataset thread count.
///
/// # Examples
///
/// ```
/// use sizeless_fleet::faults::FaultPlan;
///
/// // One scheduled crash plus stochastic per-attempt faults.
/// let plan = FaultPlan::parse(
///     "crash:host=0,at=5000,down=2000;transient:init=0.05,exec=0.1,frac=0.5",
/// )
/// .unwrap();
/// assert_eq!(plan.crashes.len(), 1);
/// assert!(plan.transient.is_some());
///
/// // The same plan, built programmatically.
/// let same = FaultPlan::none()
///     .with_crash(0, 5_000.0, 2_000.0)
///     .with_transient(0.05, 0.1, 0.5);
/// assert_eq!(plan, same);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Explicitly scheduled host crashes.
    pub crashes: Vec<HostCrash>,
    /// Optional stochastic crash process layered on top.
    pub crash_process: Option<CrashProcess>,
    /// Optional per-attempt transient faults.
    pub transient: Option<TransientFaults>,
    /// Optional post-rejoin recovery slowdown.
    pub recovery: Option<Recovery>,
    /// Scheduled region outages (multi-region runs only).
    pub outages: Vec<RegionOutage>,
    /// Whether outage arrivals fail over to a healthy region (`true`) or
    /// shed locally via 429 throttling (`false`).
    pub failover: bool,
    /// Whether drift detections coinciding with an active fault window are
    /// suppressed (counted as `drift_suppressed_by_fault`).
    pub drift_mask: bool,
    /// Extra padding appended to each fault's drift-mask window, ms.
    pub mask_pad_ms: f64,
    /// Seed for the plan's own named RNG streams.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// An empty plan: nothing fails. Installing it is a no-op beyond the
    /// (zero-valued) fault summary on the report.
    pub fn none() -> Self {
        FaultPlan {
            crashes: Vec::new(),
            crash_process: None,
            transient: None,
            recovery: None,
            outages: Vec::new(),
            failover: true,
            drift_mask: true,
            mask_pad_ms: 0.0,
            seed: 0,
        }
    }

    /// Adds a scheduled crash of `host` at `at_ms`, down for `down_ms`.
    ///
    /// # Panics
    ///
    /// Panics unless `at_ms >= 0` and `down_ms > 0` (finite).
    #[must_use]
    pub fn with_crash(mut self, host: usize, at_ms: f64, down_ms: f64) -> Self {
        assert!(at_ms >= 0.0 && at_ms.is_finite(), "crash time must be >= 0");
        assert!(
            down_ms > 0.0 && down_ms.is_finite(),
            "crash downtime must be positive"
        );
        self.crashes.push(HostCrash { host, at_ms, down_ms });
        self
    }

    /// Layers a stochastic crash process over every host.
    ///
    /// # Panics
    ///
    /// Panics unless `mtbf_ms` and `down_ms` are positive and finite.
    #[must_use]
    pub fn with_crash_process(mut self, mtbf_ms: f64, down_ms: f64) -> Self {
        assert!(
            mtbf_ms > 0.0 && mtbf_ms.is_finite(),
            "MTBF must be positive"
        );
        assert!(
            down_ms > 0.0 && down_ms.is_finite(),
            "crash downtime must be positive"
        );
        self.crash_process = Some(CrashProcess { mtbf_ms, down_ms });
        self
    }

    /// Enables per-attempt transient faults.
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities and the duration fraction are in
    /// `[0, 1]`.
    #[must_use]
    pub fn with_transient(
        mut self,
        init_failure_p: f64,
        exec_failure_p: f64,
        failure_duration_frac: f64,
    ) -> Self {
        for (name, p) in [
            ("init failure probability", init_failure_p),
            ("exec failure probability", exec_failure_p),
            ("failure duration fraction", failure_duration_frac),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0, 1]");
        }
        self.transient = Some(TransientFaults {
            init_failure_p,
            exec_failure_p,
            failure_duration_frac,
        });
        self
    }

    /// Enables a post-rejoin recovery slowdown.
    ///
    /// # Panics
    ///
    /// Panics unless `recovery_ms >= 0` and `slowdown >= 1` (finite).
    #[must_use]
    pub fn with_recovery(mut self, recovery_ms: f64, slowdown: f64) -> Self {
        assert!(
            recovery_ms >= 0.0 && recovery_ms.is_finite(),
            "recovery window must be >= 0"
        );
        assert!(
            slowdown >= 1.0 && slowdown.is_finite(),
            "recovery slowdown must be >= 1"
        );
        self.recovery = Some(Recovery { recovery_ms, slowdown });
        self
    }

    /// Adds a scheduled outage of `region` at `at_ms` for `down_ms`.
    ///
    /// # Panics
    ///
    /// Panics unless `at_ms >= 0` and `down_ms > 0` (finite).
    #[must_use]
    pub fn with_outage(mut self, region: usize, at_ms: f64, down_ms: f64) -> Self {
        assert!(at_ms >= 0.0 && at_ms.is_finite(), "outage time must be >= 0");
        assert!(
            down_ms > 0.0 && down_ms.is_finite(),
            "outage duration must be positive"
        );
        self.outages.push(RegionOutage { region, at_ms, down_ms });
        self
    }

    /// Replaces the plan's seed (the bench binaries fold `--fault-seed` in
    /// through this).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Extends every fault's drift-mask window by `pad_ms`.
    ///
    /// # Panics
    ///
    /// Panics unless `pad_ms >= 0` (finite).
    #[must_use]
    pub fn with_mask_pad_ms(mut self, pad_ms: f64) -> Self {
        assert!(
            pad_ms >= 0.0 && pad_ms.is_finite(),
            "mask padding must be >= 0"
        );
        self.mask_pad_ms = pad_ms;
        self
    }

    /// Disables outage failover: outage arrivals shed locally via 429
    /// throttling instead of routing to a healthy region.
    #[must_use]
    pub fn without_failover(mut self) -> Self {
        self.failover = false;
        self
    }

    /// Disables fault masking of drift detections.
    #[must_use]
    pub fn without_drift_mask(mut self) -> Self {
        self.drift_mask = false;
        self
    }

    /// Materializes the full crash schedule for a fleet of `hosts` hosts
    /// over `duration_ms`: scheduled crashes targeting existing hosts plus
    /// draws from the stochastic process (per-host streams, uptime gaps
    /// exponential with mean `mtbf_ms`, never overlapping the host's own
    /// downtime). Sorted by time, then host.
    pub fn materialize_crashes(&self, hosts: usize, duration_ms: f64) -> Vec<HostCrash> {
        let mut out: Vec<HostCrash> = self
            .crashes
            .iter()
            .filter(|c| c.host < hosts)
            .copied()
            .collect();
        if let Some(p) = self.crash_process {
            let root = RngStream::from_seed(self.seed, "faults");
            for host in 0..hosts {
                let mut rng = root.derive(&format!("crashes/{host}"));
                let mut t = 0.0;
                loop {
                    let u = rng.next_f64();
                    t += -(1.0 - u).ln() * p.mtbf_ms;
                    if t >= duration_ms {
                        break;
                    }
                    out.push(HostCrash {
                        host,
                        at_ms: t,
                        down_ms: p.down_ms,
                    });
                    t += p.down_ms;
                }
            }
        }
        out.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms).then(a.host.cmp(&b.host)));
        out
    }

    /// Parses the compact textual plan spec used by `--faults`.
    ///
    /// Clauses are separated by `;`; each clause is `kind:key=value,...`:
    ///
    /// * `crash:host=0,at=5000,down=2000` — one scheduled host crash
    /// * `crashes:mtbf=60000,down=3000` — stochastic crash process
    /// * `transient:init=0.05,exec=0.1,frac=0.5` — per-attempt faults
    /// * `recovery:ms=4000,slowdown=2.0` — post-rejoin slowdown
    /// * `outage:region=1,at=8000,down=4000` — region outage
    /// * `nofailover` — shed outage traffic locally instead of failing over
    /// * `nomask` — do not suppress fault-coincident drift detections
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending clause or
    /// key when the spec is malformed, a clause repeats a key or names one
    /// it does not take, or a value is out of range.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, body) = match clause.split_once(':') {
                Some((k, b)) => (k.trim(), b.trim()),
                None => (clause, ""),
            };
            let fields = parse_fields(clause, body)?;
            match kind {
                "crash" => {
                    check_keys(&fields, clause, kind, &["host", "at", "down"])?;
                    let host = get_usize(&fields, clause, "host")?;
                    let at = get_f64(&fields, clause, "at")?;
                    let down = get_f64(&fields, clause, "down")?;
                    require(at >= 0.0, clause, "`at` must be >= 0")?;
                    require(down > 0.0, clause, "`down` must be > 0")?;
                    plan.crashes.push(HostCrash {
                        host,
                        at_ms: at,
                        down_ms: down,
                    });
                }
                "crashes" => {
                    check_keys(&fields, clause, kind, &["mtbf", "down"])?;
                    let mtbf = get_f64(&fields, clause, "mtbf")?;
                    let down = get_f64(&fields, clause, "down")?;
                    require(mtbf > 0.0, clause, "`mtbf` must be > 0")?;
                    require(down > 0.0, clause, "`down` must be > 0")?;
                    plan.crash_process = Some(CrashProcess {
                        mtbf_ms: mtbf,
                        down_ms: down,
                    });
                }
                "transient" => {
                    check_keys(&fields, clause, kind, &["init", "exec", "frac"])?;
                    let init = get_f64(&fields, clause, "init")?;
                    let exec = get_f64(&fields, clause, "exec")?;
                    let frac = get_f64(&fields, clause, "frac")?;
                    for (name, p) in [("init", init), ("exec", exec), ("frac", frac)] {
                        require(
                            (0.0..=1.0).contains(&p),
                            clause,
                            &format!("`{name}` must be in [0, 1]"),
                        )?;
                    }
                    plan.transient = Some(TransientFaults {
                        init_failure_p: init,
                        exec_failure_p: exec,
                        failure_duration_frac: frac,
                    });
                }
                "recovery" => {
                    check_keys(&fields, clause, kind, &["ms", "slowdown"])?;
                    let ms = get_f64(&fields, clause, "ms")?;
                    let slowdown = get_f64(&fields, clause, "slowdown")?;
                    require(ms >= 0.0, clause, "`ms` must be >= 0")?;
                    require(slowdown >= 1.0, clause, "`slowdown` must be >= 1")?;
                    plan.recovery = Some(Recovery {
                        recovery_ms: ms,
                        slowdown,
                    });
                }
                "outage" => {
                    check_keys(&fields, clause, kind, &["region", "at", "down"])?;
                    let region = get_usize(&fields, clause, "region")?;
                    let at = get_f64(&fields, clause, "at")?;
                    let down = get_f64(&fields, clause, "down")?;
                    require(at >= 0.0, clause, "`at` must be >= 0")?;
                    require(down > 0.0, clause, "`down` must be > 0")?;
                    plan.outages.push(RegionOutage {
                        region,
                        at_ms: at,
                        down_ms: down,
                    });
                }
                "nofailover" => {
                    require(body.is_empty(), clause, "`nofailover` takes no fields")?;
                    plan.failover = false;
                }
                "nomask" => {
                    require(body.is_empty(), clause, "`nomask` takes no fields")?;
                    plan.drift_mask = false;
                }
                other => {
                    return Err(format!(
                        "unknown fault clause `{other}` (expected crash, crashes, \
                         transient, recovery, outage, nofailover, or nomask)"
                    ));
                }
            }
        }
        Ok(plan)
    }
}

fn require(ok: bool, clause: &str, msg: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("in fault clause `{clause}`: {msg}"))
    }
}

fn parse_fields<'a>(clause: &str, body: &'a str) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut fields = Vec::new();
    for pair in body.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("in fault clause `{clause}`: expected `key=value`, got `{pair}`"))?;
        fields.push((k.trim(), v.trim()));
    }
    Ok(fields)
}

/// Rejects a key the clause `kind` does not take, and a repeated key.
fn check_keys(
    fields: &[(&str, &str)],
    clause: &str,
    kind: &str,
    takes: &[&str],
) -> Result<(), String> {
    for (i, (key, _)) in fields.iter().enumerate() {
        let problem = if !takes.contains(key) {
            "unknown"
        } else if fields[..i].iter().any(|(k, _)| k == key) {
            "repeated"
        } else {
            continue;
        };
        return Err(format!(
            "in fault clause `{clause}`: {problem} key `{key}` (`{kind}` takes {})",
            takes.join(", ")
        ));
    }
    Ok(())
}

fn get_raw<'a>(fields: &[(&'a str, &'a str)], clause: &str, key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("in fault clause `{clause}`: missing `{key}=`"))
}

fn get_f64(fields: &[(&str, &str)], clause: &str, key: &str) -> Result<f64, String> {
    let raw = get_raw(fields, clause, key)?;
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("in fault clause `{clause}`: `{key}={raw}` is not a number"))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("in fault clause `{clause}`: `{key}` must be finite"))
    }
}

fn get_usize(fields: &[(&str, &str)], clause: &str, key: &str) -> Result<usize, String> {
    let raw = get_raw(fields, clause, key)?;
    raw.parse()
        .map_err(|_| format!("in fault clause `{clause}`: `{key}={raw}` is not an integer"))
}

/// How the fleet reacts to a failed attempt: give up, retry on a fixed
/// delay, or back off exponentially with deterministic jitter and
/// optional per-function retry budgets.
///
/// [`RetryKind::backoff_ms`] is consulted with the number of the attempt
/// *about to be made* (the first retry is attempt 2): `Some(delay)`
/// schedules that attempt after `delay` ms of backoff, `None` gives the
/// request up as failed. The only state is the caller's per-function
/// budget ledger; all randomness (jitter) comes from the supplied stream,
/// so retries are bit-reproducible.
///
/// # Examples
///
/// ```
/// use sizeless_engine::RngStream;
/// use sizeless_fleet::faults::RetryKind;
///
/// let policy = RetryKind::ExponentialBackoff {
///     base_ms: 100.0,
///     factor: 2.0,
///     cap_ms: 5_000.0,
///     max_attempts: 3,
///     jitter_frac: 0.0,
///     budget_per_fn: None,
/// };
/// let mut spent = Vec::new();
/// let mut rng = RngStream::from_seed(0, "retry");
///
/// // Attempt 2 backs off `base`, attempt 3 backs off `base * factor`,
/// // and the attempt cap forbids a fourth attempt.
/// assert_eq!(policy.backoff_ms(&mut spent, 0, 2, &mut rng), Some(100.0));
/// assert_eq!(policy.backoff_ms(&mut spent, 0, 3, &mut rng), Some(200.0));
/// assert_eq!(policy.backoff_ms(&mut spent, 0, 4, &mut rng), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryKind {
    /// Never retry: every failed attempt fails the request.
    None,
    /// Retry on a fixed delay, up to `max_attempts` total attempts.
    Fixed {
        /// Total attempts allowed per request (first attempt included).
        max_attempts: usize,
        /// Fixed backoff, ms.
        delay_ms: f64,
    },
    /// Exponential backoff. The backoff before attempt `n` is
    /// `min(cap_ms, base_ms * factor^(n-2))` scaled by a jitter factor
    /// drawn uniformly from `[1 - jitter_frac, 1 + jitter_frac]` on the
    /// fleet's retry stream. A per-function budget, when set, caps the
    /// *total* retries each function may consume across the whole run —
    /// once spent, further failures are final even below the attempt cap.
    ExponentialBackoff {
        /// Backoff before the first retry, ms.
        base_ms: f64,
        /// Multiplier per subsequent retry.
        factor: f64,
        /// Upper bound on any single backoff, ms.
        cap_ms: f64,
        /// Total attempts allowed per request (first attempt included).
        max_attempts: usize,
        /// Jitter half-width fraction, in `[0, 1]`.
        jitter_frac: f64,
        /// Optional per-function total retry budget.
        budget_per_fn: Option<usize>,
    },
}

impl RetryKind {
    /// Checks the policy's parameters.
    ///
    /// # Panics
    ///
    /// Panics unless an exponential backoff has `base_ms > 0`,
    /// `factor >= 1`, `cap_ms >= base_ms`, `max_attempts >= 1`, and
    /// `jitter_frac` in `[0, 1]`.
    pub(crate) fn assert_valid(self) {
        if let RetryKind::ExponentialBackoff {
            base_ms,
            factor,
            cap_ms,
            max_attempts,
            jitter_frac,
            ..
        } = self
        {
            assert!(base_ms > 0.0 && base_ms.is_finite(), "base must be positive");
            assert!(factor >= 1.0 && factor.is_finite(), "factor must be >= 1");
            assert!(cap_ms >= base_ms && cap_ms.is_finite(), "cap must be >= base");
            assert!(max_attempts >= 1, "at least one attempt is required");
            assert!(
                (0.0..=1.0).contains(&jitter_frac),
                "jitter fraction must be in [0, 1]"
            );
        }
    }

    /// Backoff before `attempt` of `fn_id`, or `None` to give up. `spent`
    /// is the run's ledger of retries per function, which a
    /// `budget_per_fn` draws down.
    pub fn backoff_ms(
        self,
        spent: &mut Vec<usize>,
        fn_id: usize,
        attempt: usize,
        rng: &mut RngStream,
    ) -> Option<f64> {
        match self {
            RetryKind::None => None,
            RetryKind::Fixed {
                max_attempts,
                delay_ms,
            } => (attempt <= max_attempts).then_some(delay_ms),
            RetryKind::ExponentialBackoff {
                base_ms,
                factor,
                cap_ms,
                max_attempts,
                jitter_frac,
                budget_per_fn,
            } => {
                if attempt > max_attempts {
                    return None;
                }
                if let Some(budget) = budget_per_fn {
                    if spent.len() <= fn_id {
                        spent.resize(fn_id + 1, 0);
                    }
                    if spent[fn_id] >= budget {
                        return None;
                    }
                    spent[fn_id] += 1;
                }
                let exponent = attempt.saturating_sub(2) as i32;
                let raw = (base_ms * factor.powi(exponent)).min(cap_ms);
                let jitter = if jitter_frac > 0.0 {
                    1.0 + jitter_frac * (2.0 * rng.next_f64() - 1.0)
                } else {
                    1.0
                };
                Some(raw * jitter)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_clause() {
        let plan = FaultPlan::parse(
            "crash:host=2,at=1000,down=500; crashes:mtbf=60000,down=3000; \
             transient:init=0.05,exec=0.1,frac=0.5; recovery:ms=4000,slowdown=2.0; \
             outage:region=1,at=8000,down=4000; nofailover; nomask",
        )
        .unwrap();
        assert_eq!(
            plan.crashes,
            vec![HostCrash {
                host: 2,
                at_ms: 1_000.0,
                down_ms: 500.0
            }]
        );
        assert_eq!(
            plan.crash_process,
            Some(CrashProcess {
                mtbf_ms: 60_000.0,
                down_ms: 3_000.0
            })
        );
        assert_eq!(
            plan.transient,
            Some(TransientFaults {
                init_failure_p: 0.05,
                exec_failure_p: 0.1,
                failure_duration_frac: 0.5
            })
        );
        assert_eq!(
            plan.recovery,
            Some(Recovery {
                recovery_ms: 4_000.0,
                slowdown: 2.0
            })
        );
        assert_eq!(
            plan.outages,
            vec![RegionOutage {
                region: 1,
                at_ms: 8_000.0,
                down_ms: 4_000.0
            }]
        );
        assert!(!plan.failover);
        assert!(!plan.drift_mask);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for (spec, needle) in [
            ("bogus:x=1", "unknown fault clause"),
            ("crash:host=0,at=100", "missing `down=`"),
            ("crash:host=zero,at=100,down=10", "not an integer"),
            ("transient:init=1.5,exec=0.0,frac=0.0", "must be in [0, 1]"),
            ("crashes:mtbf=0,down=10", "`mtbf` must be > 0"),
            ("recovery:ms=100,slowdown=0.5", "`slowdown` must be >= 1"),
            ("crash:host,at=100,down=10", "expected `key=value`"),
            ("outage:region=0,at=-5,down=10", "`at` must be >= 0"),
            ("nofailover:x=1", "takes no fields"),
            (
                "transient:init=0.05,exec=0.1,frac=0.5,exce=0.9",
                "unknown key `exce` (`transient` takes init, exec, frac)",
            ),
            (
                "crash:host=0,host=3,at=5000,down=2000",
                "repeated key `host` (`crash` takes host, at, down)",
            ),
            (
                "crash:host=0,at=5000,down=2000,dwon=9",
                "unknown key `dwon` (`crash` takes host, at, down)",
            ),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                err.contains(needle),
                "spec `{spec}` gave `{err}`, expected `{needle}`"
            );
        }
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn materialized_crashes_are_sorted_deterministic_and_non_overlapping() {
        let plan = FaultPlan::none()
            .with_crash_process(5_000.0, 2_000.0)
            .with_seed(7);
        let a = plan.materialize_crashes(3, 60_000.0);
        let b = plan.materialize_crashes(3, 60_000.0);
        assert_eq!(a, b, "materialization is deterministic");
        assert!(a.len() > 1, "the process fires within the horizon");
        assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms), "sorted");
        // Per host, the process's next crash never lands inside the host's
        // previous downtime. (A *scheduled* crash may overlap the process;
        // the runtime's availability guard makes that a no-op.)
        for host in 0..3 {
            let times: Vec<&HostCrash> = a.iter().filter(|c| c.host == host).collect();
            for w in times.windows(2) {
                assert!(w[1].at_ms >= w[0].at_ms + w[0].down_ms);
            }
        }
        // Scheduled crashes merge into the same sorted schedule.
        let merged = plan
            .clone()
            .with_crash(1, 9_000.0, 1_000.0)
            .materialize_crashes(3, 60_000.0);
        assert_eq!(merged.len(), a.len() + 1);
        assert!(merged.windows(2).all(|w| w[0].at_ms <= w[1].at_ms), "sorted");
        // A different seed reshuffles the stochastic part.
        let c = plan.clone().with_seed(8).materialize_crashes(3, 60_000.0);
        assert_ne!(a, c);
    }

    #[test]
    fn scheduled_crashes_outside_the_fleet_are_dropped() {
        let plan = FaultPlan::none().with_crash(9, 100.0, 50.0);
        assert!(plan.materialize_crashes(2, 10_000.0).is_empty());
    }

    /// The exponential policy the backoff tests share, with the varying
    /// parameters exposed.
    fn exponential(
        base_ms: f64,
        cap_ms: f64,
        max_attempts: usize,
        jitter_frac: f64,
        budget_per_fn: Option<usize>,
    ) -> RetryKind {
        RetryKind::ExponentialBackoff {
            base_ms,
            factor: 2.0,
            cap_ms,
            max_attempts,
            jitter_frac,
            budget_per_fn,
        }
    }

    #[test]
    fn fixed_retry_caps_attempts() {
        let mut rng = RngStream::from_seed(0, "t");
        let mut spent = Vec::new();
        let p = RetryKind::Fixed {
            max_attempts: 3,
            delay_ms: 50.0,
        };
        assert_eq!(p.backoff_ms(&mut spent, 0, 2, &mut rng), Some(50.0));
        assert_eq!(p.backoff_ms(&mut spent, 0, 3, &mut rng), Some(50.0));
        assert_eq!(p.backoff_ms(&mut spent, 0, 4, &mut rng), None);
        assert_eq!(RetryKind::None.backoff_ms(&mut spent, 0, 2, &mut rng), None);
    }

    #[test]
    fn exponential_backoff_grows_caps_and_jitters_deterministically() {
        let mut rng = RngStream::from_seed(3, "retry");
        let mut spent = Vec::new();
        let p = exponential(100.0, 350.0, 5, 0.0, None);
        assert_eq!(p.backoff_ms(&mut spent, 0, 2, &mut rng), Some(100.0));
        assert_eq!(p.backoff_ms(&mut spent, 0, 3, &mut rng), Some(200.0));
        assert_eq!(
            p.backoff_ms(&mut spent, 0, 4, &mut rng),
            Some(350.0),
            "capped"
        );
        assert_eq!(
            p.backoff_ms(&mut spent, 0, 6, &mut rng),
            None,
            "attempt cap"
        );

        let jittered = exponential(100.0, 350.0, 5, 0.25, None);
        let mut r1 = RngStream::from_seed(3, "retry");
        let mut r2 = RngStream::from_seed(3, "retry");
        let a = jittered.backoff_ms(&mut Vec::new(), 0, 2, &mut r1).unwrap();
        let b = jittered.backoff_ms(&mut Vec::new(), 0, 2, &mut r2).unwrap();
        assert_eq!(a, b, "jitter is a pure function of the stream");
        assert!((75.0..=125.0).contains(&a), "jitter stays within ±25%");
    }

    #[test]
    fn exponential_backoff_honors_per_function_budgets() {
        let mut rng = RngStream::from_seed(0, "retry");
        let mut spent = Vec::new();
        let p = exponential(10.0, 100.0, 10, 0.0, Some(2));
        assert!(p.backoff_ms(&mut spent, 0, 2, &mut rng).is_some());
        assert!(p.backoff_ms(&mut spent, 0, 2, &mut rng).is_some());
        assert_eq!(
            p.backoff_ms(&mut spent, 0, 2, &mut rng),
            None,
            "budget spent"
        );
        assert!(
            p.backoff_ms(&mut spent, 1, 2, &mut rng).is_some(),
            "budgets are per-fn"
        );
        assert_eq!(spent, vec![2, 1]);
    }
}
