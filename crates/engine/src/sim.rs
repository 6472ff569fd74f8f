//! A minimal simulation driver, generic over its event representation.
//!
//! Domain models schedule events on the virtual clock;
//! [`Simulation::run_until`] executes them in deterministic order. The
//! driver is intentionally small — most heavy lifting lives in the domain
//! crates — but centralizing clock advancement here guarantees the "time
//! never goes backwards" invariant everywhere.
//!
//! Each model defines its events as a small `Copy` type implementing
//! [`SimEvent`] and dispatches in [`SimEvent::fire`] (the fleet's
//! `FleetEvent` enum is the main one). The queue stores plain values, so a
//! steady-state run allocates nothing per event.

use crate::queue::{EventQueue, QueueKind};
use crate::time::{SimDuration, SimTime};
use std::marker::PhantomData;

/// What a scheduled event does when its time comes.
///
/// Implementors are plain values (ideally small and `Copy`); `fire`
/// consumes the event with full access to the simulation (to schedule
/// follow-ups) and the domain state.
pub trait SimEvent<S>: Sized + 'static {
    /// Executes the event at its scheduled time.
    fn fire(self, sim: &mut Simulation<S, Self>, state: &mut S);
}

/// A snapshot of a simulation's run counters, for post-run introspection
/// and the events/sec benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events executed so far.
    pub executed: u64,
    /// Events ever scheduled (executed + pending + any dropped on exit).
    pub scheduled: u64,
    /// The most events that were ever pending at once.
    pub peak_pending: usize,
}

/// A discrete-event simulation over domain state `S` with event
/// representation `E`.
///
/// # Examples
///
/// ```
/// use sizeless_engine::sim::{SimEvent, Simulation};
/// use sizeless_engine::time::{SimDuration, SimTime};
///
/// /// Logs the virtual time it fires at.
/// #[derive(Clone, Copy)]
/// struct Stamp;
///
/// impl SimEvent<Vec<f64>> for Stamp {
///     fn fire(self, sim: &mut Simulation<Vec<f64>, Self>, log: &mut Vec<f64>) {
///         log.push(sim.now().as_millis());
///     }
/// }
///
/// let mut sim: Simulation<Vec<f64>, Stamp> = Simulation::new();
/// sim.schedule_event_in(SimDuration::from_millis(10.0), Stamp);
/// let mut log = Vec::new();
/// sim.run_until(SimTime::from_millis(100.0), &mut log);
/// assert_eq!(log, vec![10.0]);
/// ```
pub struct Simulation<S, E> {
    clock: SimTime,
    events: EventQueue<E>,
    executed: u64,
    _state: PhantomData<fn(&mut S)>,
}

impl<S, E> std::fmt::Debug for Simulation<S, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("clock", &self.clock)
            .field("pending", &self.events.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<S, E: SimEvent<S>> Simulation<S, E> {
    /// Creates a simulation with the clock at zero and heap-backed storage.
    pub fn new() -> Self {
        Self::with_queue(QueueKind::Heap, 0)
    }

    /// Creates a simulation with the chosen event-queue representation,
    /// pre-reserved for `capacity` pending events (a growth hint — pass the
    /// expected steady-state queue depth, not the total event count).
    pub fn with_queue(kind: QueueKind, capacity: usize) -> Self {
        Simulation {
            clock: SimTime::ZERO,
            events: EventQueue::with_capacity(kind, capacity),
            executed: 0,
            _state: PhantomData,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of events executed so far.
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// A snapshot of the run counters: events executed, events ever
    /// scheduled, and the queue-depth high-water mark.
    pub fn stats(&self) -> SimStats {
        SimStats {
            executed: self.executed,
            scheduled: self.events.scheduled(),
            peak_pending: self.events.high_water(),
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.clock,
            "cannot schedule an event in the past ({at} < {})",
            self.clock
        );
        self.events.schedule(at, event);
    }

    /// Schedules `event` after a delay from the current clock.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_event_at(self.clock + delay, event);
    }

    /// The virtual time of the next pending event, if any.
    ///
    /// Lets an external driver merge several simulations into one
    /// deterministic timeline: peek every clock, advance the earliest (ties
    /// broken by the driver, e.g. lowest index), repeat — the multi-region
    /// fleet runner does exactly this.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Executes exactly one event (the earliest pending), advancing the
    /// clock to its time. Returns `false` when no event is pending.
    pub fn step(&mut self, state: &mut S) -> bool {
        match self.events.pop() {
            Some((t, event)) => {
                debug_assert!(t >= self.clock, "event queue returned a past event");
                self.clock = t;
                event.fire(self, state);
                self.executed += 1;
                true
            }
            None => false,
        }
    }

    /// Runs events until the queue drains or the clock would pass `deadline`.
    ///
    /// Events scheduled exactly at the deadline still run. Returns the number
    /// of events executed by this call.
    pub fn run_until(&mut self, deadline: SimTime, state: &mut S) -> u64 {
        let before = self.executed;
        while let Some(t) = self.events.peek_time() {
            if t > deadline {
                break;
            }
            // lint: allow(panic002) reason="pop follows a successful peek on the same queue with no intervening mutation"
            let (t, event) = self.events.pop().expect("peeked event must exist");
            debug_assert!(t >= self.clock, "event queue returned a past event");
            self.clock = t;
            event.fire(self, state);
            self.executed += 1;
        }
        // The clock advances to the deadline even if no event lands on it.
        if self.clock < deadline {
            self.clock = deadline;
        }
        self.executed - before
    }

    /// Runs until no events remain.
    pub fn run_to_completion(&mut self, state: &mut S) -> u64 {
        let before = self.executed;
        while self.step(state) {}
        self.executed - before
    }
}

impl<S, E: SimEvent<S>> Default for Simulation<S, E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test event: logs its value; a chain link also schedules its
    /// successor 1 ms later.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Tick {
        Once(u32),
        Chain { left: u32 },
    }

    impl SimEvent<Vec<u32>> for Tick {
        fn fire(self, sim: &mut Simulation<Vec<u32>, Tick>, log: &mut Vec<u32>) {
            match self {
                Tick::Once(v) => log.push(v),
                Tick::Chain { left } => {
                    log.push(left);
                    if left > 0 {
                        sim.schedule_event_in(
                            SimDuration::from_millis(1.0),
                            Tick::Chain { left: left - 1 },
                        );
                    }
                }
            }
        }
    }

    type TickSim = Simulation<Vec<u32>, Tick>;

    fn at(ms: f64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn events_run_in_order_and_advance_clock() {
        let mut sim = TickSim::new();
        sim.schedule_event_at(at(5.0), Tick::Once(5));
        sim.schedule_event_at(at(2.0), Tick::Once(2));
        let mut log = Vec::new();
        sim.run_to_completion(&mut log);
        assert_eq!(log, vec![2, 5]);
        assert_eq!(sim.now().as_millis(), 5.0);
        assert_eq!(sim.executed_events(), 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = TickSim::new();
        for i in 1..=10 {
            sim.schedule_event_at(at(f64::from(i)), Tick::Once(i));
        }
        let mut log = Vec::new();
        let ran = sim.run_until(at(4.0), &mut log);
        assert_eq!(ran, 4);
        assert_eq!(log, vec![1, 2, 3, 4]);
        assert_eq!(sim.pending_events(), 6);
        assert_eq!(sim.now().as_millis(), 4.0);
    }

    #[test]
    fn run_until_advances_clock_with_no_events() {
        let mut sim = TickSim::new();
        sim.run_until(at(50.0), &mut Vec::new());
        assert_eq!(sim.now().as_millis(), 50.0);
    }

    #[test]
    fn deadline_inclusive() {
        let mut sim = TickSim::new();
        sim.schedule_event_at(at(4.0), Tick::Once(4));
        let mut log = Vec::new();
        sim.run_until(at(4.0), &mut log);
        assert_eq!(log, vec![4]);
    }

    #[test]
    fn step_executes_exactly_one_event() {
        let mut sim = TickSim::new();
        sim.schedule_event_at(at(3.0), Tick::Once(3));
        sim.schedule_event_at(at(7.0), Tick::Once(7));
        let mut log = Vec::new();
        assert_eq!(sim.peek_time(), Some(at(3.0)));
        assert!(sim.step(&mut log));
        assert_eq!(log, vec![3]);
        assert_eq!(sim.peek_time(), Some(at(7.0)));
        assert!(sim.step(&mut log));
        assert!(!sim.step(&mut log), "drained queue steps no further");
        assert_eq!(sim.peek_time(), None);
        assert_eq!(log, vec![3, 7]);
    }

    #[test]
    fn stats_reports_executed_scheduled_and_peak() {
        let mut sim = TickSim::new();
        for i in 1..=4 {
            sim.schedule_event_at(at(f64::from(i)), Tick::Once(i));
        }
        assert_eq!(sim.stats(), SimStats { executed: 0, scheduled: 4, peak_pending: 4 });
        sim.run_to_completion(&mut Vec::new());
        assert_eq!(sim.stats(), SimStats { executed: 4, scheduled: 4, peak_pending: 4 });
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_past_panics() {
        let mut sim = TickSim::new();
        sim.schedule_event_at(at(5.0), Tick::Once(5));
        sim.run_to_completion(&mut Vec::new());
        sim.schedule_event_at(at(1.0), Tick::Once(1));
    }

    #[test]
    fn typed_events_fire_in_order_and_chain() {
        let mut sim = TickSim::with_queue(QueueKind::calendar(), 16);
        sim.schedule_event_at(at(5.0), Tick::Once(50));
        sim.schedule_event_at(at(1.0), Tick::Chain { left: 2 });
        let mut log = Vec::new();
        sim.run_to_completion(&mut log);
        assert_eq!(log, vec![2, 1, 0, 50]);
        assert_eq!(sim.now().as_millis(), 5.0);
        assert_eq!(sim.stats().executed, 4);
    }
}
