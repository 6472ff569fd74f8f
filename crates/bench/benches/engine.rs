//! Criterion benchmark of raw discrete-event churn: typed events through
//! [`Simulation`], with no fleet on top. `benches/fleet.rs` times a full
//! fleet run, and the `perfbench` workspace measures the event queue
//! inside large fleet workloads (`warm_steady`'s `events_per_s` and the
//! per-layer `engine.calendar_vs_heap`).

use criterion::{black_box, Criterion};
use sizeless_engine::{SimDuration, SimEvent, SimTime, Simulation};

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

fn main() {
    Criterion::default().bench_function("engine/churn/16x2000_events", |b| {
        b.iter(|| black_box(raw_engine_churn()))
    });
}
