//! Multi-region fleets sharing one sizing control plane.
//!
//! A production control plane does not serve one cluster: the same trained
//! artifact sizes functions in every region, while each region sees its own
//! arrival mix — and, under an adapting plane, observations from one region
//! improve recommendations in all of them. [`run_multi_region`] is that
//! topology inside the simulator: N [`Fleet`]s, each with its own hosts,
//! arrival streams, and per-region
//! [`SizingService`](sizeless_core::service::SizingService) handle, all
//! created from one shared [`ControlPlane`].
//!
//! The regions do **not** run sequentially. Each fleet is primed onto its
//! own [`Simulation`], and a merged driver repeatedly advances whichever
//! region has the earliest pending event (ties broken by region index), so
//! cross-region interactions through the shared artifact — a fine-tuning
//! update from region A changing a recommendation served to region B —
//! happen in true virtual-time order. The merge is pure bookkeeping over
//! deterministic per-region event queues, so a multi-region run replays
//! bit-identically, for every worker-thread count.
//!
//! Regions can carry [`WorkloadShift`]s: scheduled profile swaps that
//! create *genuine* metric drift mid-run, which is what separates the
//! re-measurement policies (full revert vs shadow sampling) and the
//! adaptation policies (frozen vs fine-tuned) in the first place.

use crate::faults::{FaultPlan, RetryKind};
use crate::fleet::{Fleet, FleetConfig, FleetEvent, FleetFunction, FleetSim};
use crate::keepalive::KeepAliveKind;
use crate::scheduler::SchedulerKind;
use crate::stats::FleetReport;
use serde::{Deserialize, Serialize};
use sizeless_core::service::{ControlPlane, PlaneStats, RemeasureKind, ServiceConfig};
use sizeless_engine::{fnv1a, SimTime, Simulation};
use sizeless_obs::{NullSink, TraceEvent, TraceSink};
use sizeless_platform::{Platform, ResourceProfile};

/// A scheduled in-place profile swap: genuine workload drift.
#[derive(Debug, Clone)]
pub struct WorkloadShift {
    /// Simulation time the shift lands, ms.
    pub at_ms: f64,
    /// Which function shifts.
    pub fn_id: usize,
    /// The behavior it shifts to (deployed memory size is kept).
    pub profile: ResourceProfile,
}

/// One region of a multi-region run.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Display name (e.g. `us-east`).
    pub name: String,
    /// Cluster shape, duration, and seed of this region's fleet.
    pub config: FleetConfig,
    /// The region's functions and (region-skewed) arrival mixes.
    pub functions: Vec<FleetFunction>,
    /// Mid-run workload shifts, if any.
    pub shifts: Vec<WorkloadShift>,
}

/// Fleet-level policies shared by every region of one run.
#[derive(Debug, Clone, Copy)]
pub struct MultiRegionOptions {
    /// Placement policy.
    pub scheduler: SchedulerKind,
    /// Keep-alive policy.
    pub keepalive: KeepAliveKind,
    /// Sizing-service configuration (window length, drift thresholds).
    pub service: ServiceConfig,
    /// Re-measurement policy each region's service handle uses.
    pub remeasure: RemeasureKind,
}

/// One region's slice of a [`MultiRegionReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionReport {
    /// The region's display name.
    pub region: String,
    /// Its full fleet report (the `rightsizing` section is always present).
    pub report: FleetReport,
}

/// Everything a multi-region run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiRegionReport {
    /// Per-region reports, in spec order.
    pub regions: Vec<RegionReport>,
    /// The shared control plane's tallies (handles, recommendations,
    /// observations, artifact updates).
    pub plane: PlaneStats,
    /// The adaptation policy's display name.
    pub adaptation: String,
    /// The re-measurement policy's display name.
    pub remeasure: String,
}

impl MultiRegionReport {
    /// Completions across all regions.
    pub fn completed(&self) -> usize {
        self.regions.iter().map(|r| r.report.counters.completed).sum()
    }

    /// Execution memory-time across all regions, MB·ms.
    pub fn exec_mb_ms(&self) -> f64 {
        self.regions.iter().map(|r| r.report.counters.exec_mb_ms).sum()
    }

    /// Cross-region execution memory-time per completed request, MB·ms
    /// (0 when nothing completed) — the headline right-sizing metric.
    pub fn exec_mb_ms_per_completion(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            return 0.0;
        }
        self.exec_mb_ms() / completed as f64
    }

    /// Execution time spent at the artifact's base size across all
    /// regions, ms — what a re-measurement policy pays for fresh windows.
    pub fn exec_ms_at_base(&self) -> f64 {
        self.regions
            .iter()
            .filter_map(|r| r.report.rightsizing.as_ref())
            .map(|rs| rs.counters.exec_ms_at_base)
            .sum()
    }

    /// Drift detections across all regions.
    pub fn drift_detections(&self) -> usize {
        self.regions
            .iter()
            .filter_map(|r| r.report.rightsizing.as_ref())
            .map(|rs| rs.service.drift_detections)
            .sum()
    }

    /// Post-drift re-recommendations across all regions (same + changed).
    pub fn rerecommendations(&self) -> usize {
        self.regions
            .iter()
            .filter_map(|r| r.report.rightsizing.as_ref())
            .map(|rs| rs.service.rerecommend_same + rs.service.rerecommend_changed)
            .sum()
    }
}

/// Runs several closed-loop fleets against one shared [`ControlPlane`],
/// interleaved on a merged deterministic timeline — see the
/// [module docs](self).
///
/// # Panics
///
/// Panics if `regions` is empty or a shift names an out-of-range function.
pub fn run_multi_region(
    platform: &Platform,
    regions: &[RegionSpec],
    plane: &ControlPlane,
    opts: &MultiRegionOptions,
) -> MultiRegionReport {
    run_multi_region_inner(platform, regions, plane, opts, None, |_| NullSink).0
}

/// [`run_multi_region`] under a [`FaultPlan`]: every region's fleet gets
/// the plan (its seed XOR-derived from the region name, so regions draw
/// independent fault streams), the plan's `outage` clauses take whole
/// regions dark on schedule, and — unless the plan says `nofailover` —
/// arrivals during an outage fail over to the next healthy region in spec
/// order (shedding via the 429 path when none is healthy).
///
/// # Panics
///
/// Panics if `regions` is empty, a shift names an out-of-range function,
/// or the plan has outages while the regions disagree on function count
/// (failover re-dispatches by function id).
pub fn run_multi_region_faulted(
    platform: &Platform,
    regions: &[RegionSpec],
    plane: &ControlPlane,
    opts: &MultiRegionOptions,
    plan: &FaultPlan,
    retry: RetryKind,
) -> MultiRegionReport {
    run_multi_region_faulted_traced(platform, regions, plane, opts, plan, retry, |_| NullSink).0
}

/// [`run_multi_region_faulted`] with tracing: `make_sink` builds one sink
/// per region (called with the region index, in spec order), and the
/// merged driver additionally records a [`TraceEvent::RegionHandoff`] into
/// the incoming region's sink whenever it switches which region it
/// advances. Failovers appear as [`TraceEvent::RegionFailover`] in the
/// *receiving* region's trace. Returns the per-region sinks alongside the
/// report, in spec order.
///
/// # Panics
///
/// As [`run_multi_region_faulted`].
pub fn run_multi_region_faulted_traced<S, F>(
    platform: &Platform,
    regions: &[RegionSpec],
    plane: &ControlPlane,
    opts: &MultiRegionOptions,
    plan: &FaultPlan,
    retry: RetryKind,
    make_sink: F,
) -> (MultiRegionReport, Vec<S>)
where
    S: TraceSink + 'static,
    F: FnMut(usize) -> S,
{
    run_multi_region_inner(platform, regions, plane, opts, Some((plan, retry)), make_sink)
}

fn run_multi_region_inner<S, F>(
    platform: &Platform,
    regions: &[RegionSpec],
    plane: &ControlPlane,
    opts: &MultiRegionOptions,
    faults: Option<(&FaultPlan, RetryKind)>,
    mut make_sink: F,
) -> (MultiRegionReport, Vec<S>)
where
    S: TraceSink + 'static,
    F: FnMut(usize) -> S,
{
    assert!(!regions.is_empty(), "a multi-region run needs at least one region");
    if let Some((plan, _)) = faults {
        if !plan.outages.is_empty() {
            // Failover re-dispatches by function id into another region.
            let mut counts = regions.iter().map(|r| r.functions.len());
            let first = counts.next().unwrap_or(0);
            assert!(
                counts.all(|n| n == first),
                "failover requires every region to serve the same function set"
            );
        }
    }
    let default_ttl = platform.cold_start_model().idle_ttl_ms;
    let mut fleets: Vec<Fleet<S>> = regions
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            for shift in &spec.shifts {
                assert!(
                    shift.fn_id < spec.functions.len(),
                    "shift names function {} but region {} has {}",
                    shift.fn_id,
                    spec.name,
                    spec.functions.len()
                );
            }
            let mut fleet = Fleet::new(
                platform,
                &spec.config,
                &spec.functions,
                opts.scheduler.build(),
                opts.keepalive.build(spec.functions.len(), default_ttl),
            )
            .with_sizing(plane.handle(opts.service, opts.remeasure))
            .with_trace(make_sink(i));
            if let Some((plan, retry)) = &faults {
                // Regions draw independent fault streams: same plan, seed
                // diversified by the (stable) region name.
                let region_plan = (*plan).clone().with_seed(plan.seed ^ fnv1a(&spec.name));
                fleet = fleet.with_faults(&region_plan).with_retries(*retry);
            }
            fleet
        })
        .collect();

    let mut sims: Vec<FleetSim<S>> = Vec::with_capacity(regions.len());
    for (i, (spec, fleet)) in regions.iter().zip(&mut fleets).enumerate() {
        let mut sim: FleetSim<S> =
            Simulation::with_queue(spec.config.queue, fleet.event_capacity_hint());
        fleet.prime(&mut sim);
        for shift in &spec.shifts {
            let slot = fleet.register_shift(shift.fn_id, shift.profile.clone());
            sim.schedule_event_at(
                SimTime::from_millis(shift.at_ms),
                FleetEvent::ShiftProfile { slot },
            );
        }
        if let Some((plan, _)) = &faults {
            for o in plan.outages.iter().filter(|o| o.region == i) {
                sim.schedule_event_at(SimTime::from_millis(o.at_ms), FleetEvent::BeginOutage);
                sim.schedule_event_at(
                    SimTime::from_millis(o.at_ms + o.down_ms),
                    FleetEvent::EndOutage,
                );
            }
        }
        sims.push(sim);
    }

    // The merged event loop: always advance the region with the earliest
    // pending event; a strict `<` keeps ties on the lowest region index,
    // so the interleaving is a pure function of the event times. Each
    // switch of the advanced region is recorded into the incoming region's
    // trace at the handed-off event's time.
    let mut last: Option<usize> = None;
    loop {
        let mut next: Option<(SimTime, usize)> = None;
        for (i, sim) in sims.iter().enumerate() {
            if let Some(t) = sim.peek_time() {
                if next.is_none_or(|(best, _)| t < best) {
                    next = Some((t, i));
                }
            }
        }
        let Some((t, i)) = next else { break };
        if let Some(prev) = last {
            if prev != i {
                fleets[i].sink_mut().record(
                    t.as_millis(),
                    TraceEvent::RegionHandoff {
                        from_region: prev as u32,
                        to_region: i as u32,
                    },
                );
            }
        }
        last = Some(i);
        sims[i].step(&mut fleets[i]);
        // Route any arrivals the stepped region diverted during an active
        // outage: the next healthy region in spec order takes them (at the
        // same virtual time — the merged loop just advanced the globally
        // earliest event, so no target clock has passed it), or they shed
        // locally when every region is dark.
        let diverted = fleets[i].take_diverted();
        if !diverted.is_empty() {
            let n = fleets.len();
            for (at_ms, fn_id) in diverted {
                let target = (1..n).map(|k| (i + k) % n).find(|&j| !fleets[j].in_outage());
                match target {
                    Some(j) => {
                        fleets[j].sink_mut().record(
                            at_ms,
                            TraceEvent::RegionFailover {
                                fn_id: fn_id as u32,
                                from_region: i as u32,
                                to_region: j as u32,
                            },
                        );
                        sims[j].schedule_event_at(
                            SimTime::from_millis(at_ms),
                            FleetEvent::AcceptFailover { fn_id: fn_id as u32 },
                        );
                    }
                    None => fleets[i].shed_diverted(at_ms, fn_id),
                }
            }
        }
    }

    let mut sinks = Vec::with_capacity(fleets.len());
    let region_reports = regions
        .iter()
        .zip(fleets.into_iter().zip(&sims))
        .map(|(spec, (fleet, sim))| {
            let (report, sink) = fleet.into_report_and_sink(sim);
            sinks.push(sink);
            RegionReport {
                region: spec.name.clone(),
                report,
            }
        })
        .collect();
    let report = MultiRegionReport {
        regions: region_reports,
        plane: plane.stats(),
        adaptation: plane.adaptation_name().to_string(),
        remeasure: opts.remeasure.name().to_string(),
    };
    (report, sinks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetArrival;
    use sizeless_core::dataset::DatasetConfig;
    use sizeless_core::service::{AdaptationKind, FineTuneConfig};
    use sizeless_core::trainer::{TrainedSizer, Trainer, TrainerConfig};
    use sizeless_platform::{FunctionConfig, MemorySize, Stage};
    use sizeless_workload::ArrivalProcess;

    fn quick_sizer() -> TrainedSizer {
        let cfg = TrainerConfig {
            dataset: DatasetConfig::tiny(24),
            network: sizeless_neural::NetworkConfig {
                hidden_layers: 1,
                neurons: 16,
                epochs: 30,
                l2: 0.0001,
                ..sizeless_neural::NetworkConfig::default()
            },
            ..TrainerConfig::default()
        };
        Trainer::new(cfg).train(&Platform::aws_like()).unwrap()
    }

    fn functions(io_rps: f64, cpu_rps: f64) -> Vec<FleetFunction> {
        let io = ResourceProfile::builder("region-io")
            .stage(Stage::file_io("io", 512.0, 128.0))
            .build();
        let cpu = ResourceProfile::builder("region-cpu")
            .stage(Stage::cpu("work", 60.0))
            .build();
        vec![
            FleetFunction::new(
                FunctionConfig::new(io, MemorySize::MB_256),
                FleetArrival::Steady(ArrivalProcess::poisson(io_rps)),
            ),
            FleetFunction::new(
                FunctionConfig::new(cpu, MemorySize::MB_256),
                FleetArrival::Steady(ArrivalProcess::poisson(cpu_rps)),
            ),
        ]
    }

    fn regions() -> Vec<RegionSpec> {
        vec![
            RegionSpec {
                name: "io-heavy".into(),
                config: FleetConfig::new(2, 4096.0, 20_000.0, 31).with_invariant_checks(),
                functions: functions(22.0, 6.0),
                shifts: vec![],
            },
            RegionSpec {
                name: "cpu-heavy".into(),
                config: FleetConfig::new(2, 4096.0, 20_000.0, 32).with_invariant_checks(),
                functions: functions(6.0, 18.0),
                shifts: vec![WorkloadShift {
                    at_ms: 12_000.0,
                    fn_id: 1,
                    profile: ResourceProfile::builder("region-cpu")
                        .stage(Stage::cpu("work", 150.0))
                        .build(),
                }],
            },
        ]
    }

    fn options() -> MultiRegionOptions {
        MultiRegionOptions {
            scheduler: SchedulerKind::WarmFirst,
            keepalive: KeepAliveKind::Adaptive,
            service: ServiceConfig {
                window: 50,
                ..ServiceConfig::default()
            },
            remeasure: RemeasureKind::FullRevert,
        }
    }

    #[test]
    fn regions_share_one_plane_and_report_consistently() {
        let platform = Platform::aws_like();
        let plane = ControlPlane::frozen(quick_sizer());
        let report = run_multi_region(&platform, &regions(), &plane, &options());

        assert_eq!(report.regions.len(), 2);
        assert_eq!(report.plane.handles, 2);
        assert_eq!(report.adaptation, "frozen");
        assert_eq!(report.remeasure, "full-revert");
        assert!(report.completed() > 0);
        assert!(report.exec_mb_ms_per_completion() > 0.0);
        let mut recommendations = 0;
        for region in &report.regions {
            assert!(region.report.counters.is_conserved());
            assert_eq!(region.report.counters.in_flight, 0);
            let rs = region.report.rightsizing.as_ref().expect("closed loop");
            assert_eq!(rs.counters.samples_ingested, region.report.counters.completed);
            recommendations += rs.service.recommendations;
        }
        // Every recommendation of every region was served by the one plane.
        assert_eq!(report.plane.recommendations, recommendations);
        assert!(recommendations >= 4, "both regions fill windows: {report:?}");
    }

    #[test]
    fn multi_region_runs_replay_bit_identically() {
        let platform = Platform::aws_like();
        let sizer = quick_sizer();
        let run = |remeasure| {
            let plane = ControlPlane::new(
                sizer.clone(),
                AdaptationKind::FineTune(FineTuneConfig {
                    batch: 1,
                    epochs: 4,
                    frozen_layers: 1,
                }),
            );
            run_multi_region(
                &platform,
                &regions(),
                &plane,
                &MultiRegionOptions {
                    remeasure,
                    ..options()
                },
            )
        };
        assert_eq!(
            run(RemeasureKind::FullRevert),
            run(RemeasureKind::FullRevert),
            "fine-tuned multi-region run diverged across replays"
        );
        assert_eq!(
            run(RemeasureKind::ShadowSampling(0.25)),
            run(RemeasureKind::ShadowSampling(0.25)),
            "shadow-sampled multi-region run diverged across replays"
        );
    }

    #[test]
    fn traced_multi_region_records_handoffs_without_perturbing() {
        use sizeless_obs::MemorySink;
        let platform = Platform::aws_like();
        let sizer = quick_sizer();
        let plane = || ControlPlane::frozen(sizer.clone());
        let (traced, sinks) = run_multi_region_faulted_traced(
            &platform,
            &regions(),
            &plane(),
            &options(),
            &FaultPlan::none(),
            RetryKind::None,
            |_| MemorySink::new(),
        );
        let untraced = run_multi_region_faulted(
            &platform,
            &regions(),
            &plane(),
            &options(),
            &FaultPlan::none(),
            RetryKind::None,
        );
        assert_eq!(traced, untraced, "tracing must not perturb the merged run");
        assert_eq!(sinks.len(), 2);
        for (i, sink) in sinks.iter().enumerate() {
            assert!(!sink.is_empty(), "region {i} recorded nothing");
            // Handoffs recorded into region i name it as the receiver.
            for r in sink.records() {
                if let sizeless_obs::TraceEvent::RegionHandoff { from_region, to_region } = r.event
                {
                    assert_eq!(to_region as usize, i);
                    assert_ne!(from_region, to_region);
                }
            }
        }
        // The merged driver alternates between two active regions, so both
        // sides receive handoffs.
        let handoffs: usize = sinks
            .iter()
            .map(|s| {
                s.records()
                    .iter()
                    .filter(|r| r.event.kind() == "region_handoff")
                    .count()
            })
            .sum();
        assert!(handoffs > 2, "expected interleaving, saw {handoffs} handoffs");
    }

    #[test]
    fn workload_shift_lands_mid_run() {
        let platform = Platform::aws_like();
        let plane = ControlPlane::frozen(quick_sizer());
        let specs = regions();
        let report = run_multi_region(&platform, &specs, &plane, &options());
        let shifted = &report.regions[1].report;
        // The shifted region keeps conserving and completing after the
        // profile swap; the swap itself is exercised by the longer bench
        // runs (drift needs several windows to confirm).
        assert!(shifted.counters.is_conserved());
        assert!(shifted.counters.completed > 0);
    }

    #[test]
    #[should_panic(expected = "shift names function")]
    fn out_of_range_shift_rejected() {
        let platform = Platform::aws_like();
        let plane = ControlPlane::frozen(quick_sizer());
        let mut specs = regions();
        specs[1].shifts[0].fn_id = 9;
        let _ = run_multi_region(&platform, &specs, &plane, &options());
    }

    fn outage_plan() -> FaultPlan {
        // Region 1 goes dark for the middle 8 s of the 20 s run.
        FaultPlan::none().with_outage(1, 6_000.0, 8_000.0).with_seed(5)
    }

    #[test]
    fn failover_reroutes_outage_traffic_to_the_healthy_region() {
        let platform = Platform::aws_like();
        let sizer = quick_sizer();
        let plane = || ControlPlane::frozen(sizer.clone());
        let with = run_multi_region_faulted(
            &platform,
            &regions(),
            &plane(),
            &options(),
            &outage_plan(),
            RetryKind::None,
        );
        let without = run_multi_region_faulted(
            &platform,
            &regions(),
            &plane(),
            &options(),
            &outage_plan().without_failover(),
            RetryKind::None,
        );
        let faults = |r: &MultiRegionReport, i: usize| r.regions[i].report.faults.unwrap();
        // The dark region diverted its outage arrivals; the healthy one
        // accepted exactly those.
        assert!(faults(&with, 1).failovers_out > 0, "{with:?}");
        assert_eq!(faults(&with, 0).failovers_in, faults(&with, 1).failovers_out);
        assert_eq!(faults(&with, 0).failovers_out, 0);
        // Without failover the same arrivals shed as local 429s instead.
        assert_eq!(faults(&without, 1).failovers_out, 0);
        assert!(without.regions[1].report.counters.throttled() > 0);
        for r in with.regions.iter().chain(without.regions.iter()) {
            assert!(r.report.counters.is_conserved(), "{:?}", r.report.counters);
            assert_eq!(r.report.counters.in_flight, 0);
        }
        // The ordering the chaos bench asserts at scale: failover completes
        // strictly more requests than shedding.
        assert!(
            with.completed() > without.completed(),
            "failover {} vs shed {}",
            with.completed(),
            without.completed()
        );
    }

    #[test]
    fn faulted_multi_region_replays_bit_identically() {
        let platform = Platform::aws_like();
        let sizer = quick_sizer();
        let run = || {
            let plane = ControlPlane::frozen(sizer.clone());
            run_multi_region_faulted(
                &platform,
                &regions(),
                &plane,
                &options(),
                &outage_plan().with_transient(0.05, 0.05, 0.5),
                RetryKind::Fixed { max_attempts: 3, delay_ms: 150.0 },
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faulted_tracing_does_not_perturb_and_names_failover_receivers() {
        use sizeless_obs::MemorySink;
        let platform = Platform::aws_like();
        let sizer = quick_sizer();
        let plane = || ControlPlane::frozen(sizer.clone());
        let (traced, sinks) = run_multi_region_faulted_traced(
            &platform,
            &regions(),
            &plane(),
            &options(),
            &outage_plan(),
            RetryKind::None,
            |_| MemorySink::new(),
        );
        let untraced = run_multi_region_faulted(
            &platform,
            &regions(),
            &plane(),
            &options(),
            &outage_plan(),
            RetryKind::None,
        );
        assert_eq!(traced, untraced, "tracing must not perturb the faulted run");
        // Failover events land in the receiving region's trace and match
        // its summary.
        let failovers = sinks[0]
            .records()
            .iter()
            .filter(|r| r.event.kind() == "region_failover")
            .count();
        assert_eq!(failovers, traced.regions[0].report.faults.unwrap().failovers_in);
        assert!(failovers > 0);
        // The dark region logged its hosts going down and coming back.
        let kinds: Vec<&str> = sinks[1].records().iter().map(|r| r.event.kind()).collect();
        assert!(kinds.contains(&"host_down"));
        assert!(kinds.contains(&"host_up"));
    }

    #[test]
    #[should_panic(expected = "same function set")]
    fn outage_failover_rejects_mismatched_function_sets() {
        let platform = Platform::aws_like();
        let plane = ControlPlane::frozen(quick_sizer());
        let mut specs = regions();
        specs[1].functions.pop();
        let _ = run_multi_region_faulted(
            &platform,
            &specs,
            &plane,
            &options(),
            &outage_plan(),
            RetryKind::None,
        );
    }
}
