//! Engine event-churn benchmark and the checked-in perf trajectory.
//!
//! Two layers:
//!
//! * Criterion smoke benches (stdout): raw discrete-event churn of typed
//!   events through [`Simulation`], and a short fleet run with the
//!   zero-cost [`NullSink`] vs a recording [`RingBufferSink`] — the tracing
//!   overhead comparison.
//! * A perf-trajectory writer: the same workloads timed directly
//!   (best-of-5 wall clock) and persisted as events-per-second figures to
//!   `BENCH_engine_events.json` at the workspace root, so the repo carries
//!   a comparable throughput record from run to run. CI regenerates the
//!   file and fails if it goes missing or if `fleet_null_sink` falls more
//!   than 20 % below the best entry in the history.
//!
//! The trajectory keeps a `history` array of per-run entries keyed by the
//! `--label <name>` bench argument (not wall-clock time — runs stay
//! reproducible and diffable); re-running with the same label replaces
//! that label's entry. The fleet workload is timed under both event-queue
//! variants side by side: `fleet_null_sink` uses the fleet's default
//! calendar queue, `fleet_null_sink_heap` pins the binary heap.

use criterion::{black_box, Criterion};
use serde::Serialize;
use sizeless_engine::{QueueKind, SimDuration, SimEvent, SimTime, Simulation};
use sizeless_fleet::{
    Fleet, FleetArrival, FleetConfig, FleetFunction, KeepAliveKind, SchedulerKind,
};
use sizeless_obs::RingBufferSink;
use sizeless_platform::{FunctionConfig, MemorySize, Platform, ResourceProfile, Stage};
use sizeless_workload::ArrivalProcess;
use std::time::Instant;

/// Independent event chains in the raw churn workload.
const CHAINS: usize = 16;
/// Virtual horizon of the raw churn workload, ms (1 ms steps per chain).
const HORIZON_MS: u64 = 2_000;

/// One link of a raw churn chain: counts itself and reschedules 1 ms later
/// until the horizon.
#[derive(Clone, Copy)]
struct Tick;

/// Events fired so far by the raw churn workload.
struct Tally(u64);

impl SimEvent<Tally> for Tick {
    fn fire(self, sim: &mut Simulation<Tally, Tick>, state: &mut Tally) {
        state.0 += 1;
        if sim.now() < SimTime::from_millis(HORIZON_MS as f64) {
            sim.schedule_event_in(SimDuration::from_millis(1.0), Tick);
        }
    }
}

/// Runs `CHAINS` self-rescheduling 1 ms event chains to `HORIZON_MS` and
/// returns the number of events executed.
fn raw_engine_churn() -> u64 {
    let mut sim: Simulation<Tally, Tick> = Simulation::new();
    let mut state = Tally(0);
    for chain in 0..CHAINS {
        sim.schedule_event_at(SimTime::from_millis(chain as f64 / CHAINS as f64), Tick);
    }
    sim.run_to_completion(&mut state);
    assert_eq!(state.0, sim.stats().executed);
    sim.stats().executed
}

/// The fleet workload both sink variants run: 4 hosts, one CPU-bound
/// function at 80 rps for 5 virtual seconds.
fn fleet_functions() -> Vec<FleetFunction> {
    vec![FleetFunction::new(
        FunctionConfig::new(
            ResourceProfile::builder("bench-events")
                .stage(Stage::cpu("work", 18.0))
                .build(),
            MemorySize::MB_512,
        ),
        FleetArrival::Steady(ArrivalProcess::poisson(80.0)),
    )]
}

fn fleet_config() -> FleetConfig {
    FleetConfig::new(4, 2048.0, 5_000.0, 7)
}

fn build_fleet(platform: &Platform) -> Fleet {
    build_fleet_queued(platform, fleet_config().queue)
}

fn build_fleet_queued(platform: &Platform, queue: QueueKind) -> Fleet {
    let functions = fleet_functions();
    let default_ttl = platform.cold_start_model().idle_ttl_ms;
    Fleet::new(
        platform,
        &fleet_config().with_queue(queue),
        &functions,
        SchedulerKind::WarmFirst.build(),
        KeepAliveKind::Adaptive.build(functions.len(), default_ttl),
    )
}

/// Events executed by one fleet run with the zero-cost null sink.
fn fleet_null_run(platform: &Platform) -> u64 {
    build_fleet(platform).run().sim.events_executed
}

/// [`fleet_null_run`] pinned to a specific event-queue variant.
fn fleet_null_run_queued(platform: &Platform, queue: QueueKind) -> u64 {
    build_fleet_queued(platform, queue).run().sim.events_executed
}

/// Events executed by one fleet run recording into a ring buffer.
fn fleet_ring_run(platform: &Platform) -> u64 {
    let (report, sink) = build_fleet(platform)
        .with_trace(RingBufferSink::new(4096))
        .run_traced();
    assert!(sink.recorded() > 0, "traced run recorded nothing");
    report.sim.events_executed
}

fn bench_engine_churn(c: &mut Criterion) {
    c.bench_function("engine/churn/16x2000_events", |b| {
        b.iter(|| black_box(raw_engine_churn()))
    });
}

fn bench_traced_fleet(c: &mut Criterion) {
    let platform = Platform::aws_like();
    let mut group = c.benchmark_group("engine/fleet_run");
    group.bench_function("null_sink", |b| {
        b.iter(|| black_box(fleet_null_run(&platform)))
    });
    group.bench_function("ring_sink_4096", |b| {
        b.iter(|| black_box(fleet_ring_run(&platform)))
    });
    group.finish();
}

/// One timed workload in the perf trajectory.
#[derive(Serialize)]
struct Throughput {
    events_executed: u64,
    best_elapsed_ns: u64,
    events_per_sec: f64,
}

/// The checked-in perf-trajectory document.
#[derive(Serialize)]
struct Trajectory {
    bench: &'static str,
    repetitions: u32,
    engine_churn: Throughput,
    /// Fleet run on the default (calendar) event queue.
    fleet_null_sink: Throughput,
    /// The same fleet run pinned to the binary-heap queue — the
    /// side-by-side queue comparison.
    fleet_null_sink_heap: Throughput,
    fleet_ring_sink: Throughput,
    /// Ring-buffer tracing cost relative to the null sink, percent of the
    /// null-sink run time (wall clock; machine-dependent, sign included).
    ring_overhead_pct: f64,
    /// Calendar-queue gain over the heap on the fleet workload, percent of
    /// the heap run time (sign included).
    calendar_gain_pct: f64,
    /// One entry per labelled run, keyed by the `--label` bench argument.
    /// Re-running a label replaces its entry, so the history tracks
    /// distinct measurement points, not invocations.
    history: Vec<serde_json::Value>,
}

/// Best-of-`reps` wall-clock timing of `run`, which returns the event count.
fn measure(reps: u32, mut run: impl FnMut() -> u64) -> Throughput {
    let mut best_ns = u64::MAX;
    let mut events = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        events = black_box(run());
        best_ns = best_ns.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    Throughput {
        events_executed: events,
        best_elapsed_ns: best_ns,
        events_per_sec: events as f64 / (best_ns as f64 / 1e9),
    }
}

/// The `--label <name>` bench argument, or `"local"`. The label keys this
/// run's history entry — a bench-arg timestamp, deliberately not wall
/// clock, so regenerating the trajectory is reproducible.
fn run_label() -> String {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--label" {
            if let Some(v) = args.next() {
                return v;
            }
        }
    }
    "local".to_string()
}

/// The `history` array of a previously written trajectory, minus any
/// entry carrying `label` (replaced by this run). A missing or
/// unparseable file yields an empty history.
fn prior_history(path: &str, label: &str) -> Vec<serde_json::Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<serde_json::Value>(&text) else {
        return Vec::new();
    };
    match doc.get("history") {
        Some(serde_json::Value::Array(entries)) => entries
            .iter()
            .filter(|e| e.get("label").and_then(|l| l.as_str()) != Some(label))
            .cloned()
            .collect(),
        _ => Vec::new(),
    }
}

/// Times all workloads and writes `BENCH_engine_events.json` at the
/// workspace root, appending this run to the label-keyed history.
fn write_perf_trajectory() {
    const REPS: u32 = 5;
    let platform = Platform::aws_like();
    let engine_churn = measure(REPS, raw_engine_churn);
    let fleet_null_sink = measure(REPS, || fleet_null_run(&platform));
    let fleet_null_sink_heap =
        measure(REPS, || fleet_null_run_queued(&platform, QueueKind::Heap));
    let fleet_ring_sink = measure(REPS, || fleet_ring_run(&platform));
    let ring_overhead_pct = (fleet_ring_sink.best_elapsed_ns as f64
        / fleet_null_sink.best_elapsed_ns as f64
        - 1.0)
        * 100.0;
    let calendar_gain_pct = (fleet_null_sink_heap.best_elapsed_ns as f64
        / fleet_null_sink.best_elapsed_ns as f64
        - 1.0)
        * 100.0;

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine_events.json");
    let label = run_label();
    let mut history = prior_history(path, &label);
    history.push(serde_json::json!({
        "label": label,
        "engine_churn_events_per_sec": engine_churn.events_per_sec,
        "fleet_null_sink_events_per_sec": fleet_null_sink.events_per_sec,
        "fleet_null_sink_heap_events_per_sec": fleet_null_sink_heap.events_per_sec,
        "fleet_ring_sink_events_per_sec": fleet_ring_sink.events_per_sec,
    }));

    let trajectory = Trajectory {
        bench: "engine_events",
        repetitions: REPS,
        engine_churn,
        fleet_null_sink,
        fleet_null_sink_heap,
        fleet_ring_sink,
        ring_overhead_pct,
        calendar_gain_pct,
        history,
    };
    let json = serde_json::to_string_pretty(&trajectory).expect("serialize trajectory");
    std::fs::write(path, json + "\n").expect("write BENCH_engine_events.json");
    println!("perf trajectory written to {path}");
}

fn main() {
    let mut criterion = Criterion::default();
    bench_engine_churn(&mut criterion);
    bench_traced_fleet(&mut criterion);
    write_perf_trajectory();
}
