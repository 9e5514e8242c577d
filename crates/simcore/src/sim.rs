//! The discrete-event simulation loop.
//!
//! A [`Simulation`] owns user-defined state `S`, an arena of event
//! payloads, and a binary heap of `(time, seq, slot)` keys into that
//! arena. Each event is a boxed closure invoked with exclusive access to
//! the state and a [`Scheduler`] through which it can read the clock and
//! schedule further events. Events at equal times run in the order they
//! were scheduled (FIFO tie-breaking by sequence number), which — together
//! with the deterministic RNG in [`crate::rng`] — makes runs exactly
//! reproducible.
//!
//! # Determinism contract
//!
//! The dispatch order is the ascending `(time, seq)` order of scheduling
//! calls, where `seq` is one global counter taken at the moment of each
//! call. A periodic rearm is sequenced *after* anything its handler
//! scheduled, and [`Scheduler::stop`] leaves unprocessed events queued for
//! a later `run`. `tests/model.rs` holds the engine to this contract
//! against a sorted-`Vec` interpreter of it.
//!
//! # Examples
//!
//! ```
//! use simcore::sim::Simulation;
//! use simcore::time::{SimDuration, SimTime};
//!
//! let mut sim = Simulation::new(0u32);
//! sim.schedule_after(SimDuration::from_secs(1), |count, ctx| {
//!     *count += 1;
//!     ctx.after(SimDuration::from_secs(1), |count: &mut u32, _ctx| *count += 10);
//! });
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_secs(2));
//! assert_eq!(*sim.state(), 11);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A boxed event handler.
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

/// A boxed periodic handler: returns the next delay, or `None` to stop.
type PeriodicFn<S> = Box<dyn FnMut(&mut S, &mut Scheduler<S>) -> Option<SimDuration>>;

/// One queued event: dispatch time, global FIFO sequence number, and the
/// arena slot holding its payload.
///
/// Field order matters: the derived `Ord` is lexicographic over
/// `(at, seq, slot)`, and `seq` is globally unique, so ordering is total
/// and FIFO at equal times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// One arena slot: the payload a queued [`EventKey`] points at.
///
/// Periodic events keep their slot across rearms, so a self-rearming
/// timer allocates exactly once for its whole lifetime.
enum Slot<S> {
    /// No payload; the slot is free or its event is mid-dispatch.
    Vacant,
    /// A one-shot handler.
    Once(EventFn<S>),
    /// A self-rearming handler.
    Periodic(PeriodicFn<S>),
}

/// The heap, arena, and clock shared by [`Simulation`] and [`Scheduler`].
struct Core<S> {
    heap: BinaryHeap<Reverse<EventKey>>,
    arena: Vec<Slot<S>>,
    free: Vec<u32>,
    now: SimTime,
    seq: u64,
    executed: u64,
    stop: bool,
}

impl<S> Core<S> {
    /// Queues `slot` at `at` with the next sequence number.
    fn push(&mut self, at: SimTime, slot: u32) {
        self.heap.push(Reverse(EventKey { at, seq: self.seq, slot }));
        self.seq += 1;
    }

    /// Stores `payload` in a (reused) arena slot and queues it at `at`.
    fn schedule_event(&mut self, at: SimTime, payload: Slot<S>) {
        let slot = match self.free.pop() {
            Some(s) => {
                if let Some(cell) = self.arena.get_mut(s as usize) {
                    *cell = payload;
                }
                s
            }
            None => {
                self.arena.push(payload);
                (self.arena.len() - 1) as u32
            }
        };
        self.push(at, slot);
    }

    /// Vacates a slot and returns it to the free list.
    fn release(&mut self, slot: u32) {
        if let Some(cell) = self.arena.get_mut(slot as usize) {
            *cell = Slot::Vacant;
        }
        self.free.push(slot);
    }
}

/// The scheduling interface passed to every event handler.
///
/// Scheduling calls push directly onto the event heap, taking the next
/// global sequence number at the moment of the call — so two handlers'
/// same-time events interleave exactly in call order, and a rerun is
/// bit-identical.
pub struct Scheduler<'a, S> {
    core: &'a mut Core<S>,
}

impl<'a, S> Scheduler<'a, S> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Schedules `f` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn at(&mut self, at: SimTime, f: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static) {
        assert!(at >= self.core.now, "cannot schedule into the past: {at} < {}", self.core.now);
        self.core.schedule_event(at, Slot::Once(Box::new(f)));
    }

    /// Schedules `f` after a relative delay.
    pub fn after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        let at = self.core.now + delay;
        self.core.schedule_event(at, Slot::Once(Box::new(f)));
    }

    /// Schedules a self-rearming periodic task.
    ///
    /// `f` runs immediately after `first_delay`; each invocation returns
    /// `Some(next_delay)` to rearm or `None` to stop. The handler keeps
    /// one arena slot for its whole lifetime — rearming allocates nothing.
    pub fn periodic(
        &mut self,
        first_delay: SimDuration,
        f: impl FnMut(&mut S, &mut Scheduler<S>) -> Option<SimDuration> + 'static,
    ) where
        S: 'static,
    {
        let at = self.core.now + first_delay;
        self.core.schedule_event(at, Slot::Periodic(Box::new(f)));
    }

    /// Asks the simulation loop to stop after the current event completes.
    ///
    /// Events already queued remain there (including others at the same
    /// timestamp); a subsequent `run` call resumes processing.
    pub fn stop(&mut self) {
        self.core.stop = true;
    }
}

/// A deterministic discrete-event simulation over user state `S`.
pub struct Simulation<S> {
    state: S,
    core: Core<S>,
}

impl<S> Simulation<S> {
    /// Creates a simulation at time zero owning `state`.
    pub fn new(state: S) -> Self {
        Simulation {
            state,
            core: Core {
                heap: BinaryHeap::new(),
                arena: Vec::new(),
                free: Vec::new(),
                now: SimTime::ZERO,
                seq: 0,
                executed: 0,
                stop: false,
            },
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.core.executed
    }

    /// Number of events currently queued.
    pub fn events_pending(&self) -> usize {
        self.core.heap.len()
    }

    /// Shared access to the simulation state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Consumes the simulation, returning the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Schedules `f` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        assert!(at >= self.core.now, "cannot schedule into the past: {at} < {}", self.core.now);
        self.core.schedule_event(at, Slot::Once(Box::new(f)));
    }

    /// Schedules `f` after a relative delay.
    pub fn schedule_after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) {
        let at = self.core.now + delay;
        self.core.schedule_event(at, Slot::Once(Box::new(f)));
    }

    /// Schedules a self-rearming periodic task (see [`Scheduler::periodic`]).
    pub fn schedule_periodic(
        &mut self,
        first_delay: SimDuration,
        f: impl FnMut(&mut S, &mut Scheduler<S>) -> Option<SimDuration> + 'static,
    ) where
        S: 'static,
    {
        let at = self.core.now + first_delay;
        self.core.schedule_event(at, Slot::Periodic(Box::new(f)));
    }

    /// Runs one event's dispatch: clock advance, handler call, and (for
    /// periodics) the rearm.
    fn dispatch(&mut self, key: EventKey) {
        debug_assert!(key.at >= self.core.now, "event heap went backwards");
        self.core.now = key.at;
        self.core.executed += 1;
        let payload = match self.core.arena.get_mut(key.slot as usize) {
            Some(cell) => std::mem::replace(cell, Slot::Vacant),
            None => Slot::Vacant,
        };
        match payload {
            Slot::Vacant => {
                // A key whose slot holds no payload would be an arena
                // bookkeeping bug; skip it rather than poison the run.
                debug_assert!(false, "dispatched key with vacant slot {}", key.slot);
                self.core.release(key.slot);
            }
            Slot::Once(f) => {
                self.core.release(key.slot);
                let mut ctx = Scheduler { core: &mut self.core };
                f(&mut self.state, &mut ctx);
            }
            Slot::Periodic(mut f) => {
                let next = {
                    let mut ctx = Scheduler { core: &mut self.core };
                    f(&mut self.state, &mut ctx)
                };
                match next {
                    Some(delay) => {
                        // Back into its own slot, with a seq taken after
                        // everything the handler itself scheduled.
                        if let Some(cell) = self.core.arena.get_mut(key.slot as usize) {
                            *cell = Slot::Periodic(f);
                        }
                        let at = self.core.now + delay;
                        self.core.push(at, key.slot);
                    }
                    None => self.core.release(key.slot),
                }
            }
        }
    }

    /// Executes the next event, if any, advancing the clock to it.
    ///
    /// Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.core.heap.pop() {
            Some(Reverse(key)) => {
                self.dispatch(key);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue is empty or [`Scheduler::stop`] is called.
    pub fn run(&mut self) {
        self.core.stop = false;
        while !self.core.stop && self.step() {}
    }

    /// Runs all events scheduled at or before `deadline`, then advances the
    /// clock to exactly `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is in the past.
    pub fn run_until(&mut self, deadline: SimTime) {
        assert!(deadline >= self.core.now, "deadline {deadline} is before now {}", self.core.now);
        self.core.stop = false;
        while !self.core.stop {
            match self.core.heap.peek() {
                Some(&Reverse(key)) if key.at <= deadline => {
                    self.core.heap.pop();
                    self.dispatch(key);
                }
                _ => break,
            }
        }
        if !self.core.stop {
            self.core.now = deadline;
        }
    }

    /// Runs for a relative span from the current time (see
    /// [`run_until`](Self::run_until)).
    pub fn run_for(&mut self, span: SimDuration) {
        self.run_until(self.core.now + span);
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for Simulation<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.core.now)
            .field("pending", &self.core.heap.len())
            .field("executed", &self.core.executed)
            .field("state", &self.state)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulation::new(Vec::new());
        sim.schedule_at(SimTime::from_secs(3), |log: &mut Vec<u32>, _| log.push(3));
        sim.schedule_at(SimTime::from_secs(1), |log: &mut Vec<u32>, _| log.push(1));
        sim.schedule_at(SimTime::from_secs(2), |log: &mut Vec<u32>, _| log.push(2));
        sim.run();
        assert_eq!(*sim.state(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim = Simulation::new(Vec::new());
        let t = SimTime::from_secs(1);
        for i in 0..10u32 {
            sim.schedule_at(t, move |log: &mut Vec<u32>, _| log.push(i));
        }
        sim.run();
        assert_eq!(*sim.state(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_works() {
        let mut sim = Simulation::new(0u64);
        sim.schedule_after(SimDuration::from_secs(1), |n, ctx| {
            *n += 1;
            ctx.after(SimDuration::from_secs(1), |n: &mut u64, ctx| {
                *n += 1;
                ctx.after(SimDuration::from_secs(1), |n: &mut u64, _| *n += 1);
            });
        });
        sim.run();
        assert_eq!(*sim.state(), 3);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_at(SimTime::from_secs(5), |n, _| *n += 1);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(*sim.state(), 0);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(*sim.state(), 1);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn periodic_rearms_until_none() {
        let mut sim = Simulation::new(Vec::new());
        sim.schedule_periodic(SimDuration::from_secs(1), |log: &mut Vec<u64>, ctx| {
            log.push(ctx.now().as_nanos());
            if log.len() < 3 {
                Some(SimDuration::from_secs(2))
            } else {
                None
            }
        });
        sim.run();
        assert_eq!(
            *sim.state(),
            vec![
                SimTime::from_secs(1).as_nanos(),
                SimTime::from_secs(3).as_nanos(),
                SimTime::from_secs(5).as_nanos()
            ]
        );
    }

    #[test]
    fn stop_halts_and_resumes() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_at(SimTime::from_secs(1), |n, ctx| {
            *n += 1;
            ctx.stop();
        });
        sim.schedule_at(SimTime::from_secs(2), |n, _| *n += 10);
        sim.run();
        assert_eq!(*sim.state(), 1);
        sim.run();
        assert_eq!(*sim.state(), 11);
    }

    #[test]
    fn events_executed_counts() {
        let mut sim = Simulation::new(());
        for i in 0..5 {
            sim.schedule_at(SimTime::from_secs(i), |_, _| {});
        }
        sim.run();
        assert_eq!(sim.events_executed(), 5);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(());
        sim.schedule_at(SimTime::from_secs(1), |_, _| {});
        sim.run();
        sim.schedule_at(SimTime::ZERO, |_, _| {});
    }

    #[test]
    fn stop_mid_batch_requeues_the_rest() {
        let mut sim = Simulation::new(Vec::new());
        let t = SimTime::from_secs(1);
        sim.schedule_at(t, |log: &mut Vec<u32>, ctx| {
            log.push(0);
            ctx.stop();
        });
        sim.schedule_at(t, |log: &mut Vec<u32>, _| log.push(1));
        sim.schedule_at(t, |log: &mut Vec<u32>, _| log.push(2));
        sim.run();
        assert_eq!(*sim.state(), vec![0]);
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(*sim.state(), vec![0, 1, 2], "requeued batch keeps FIFO order");
    }

    #[test]
    fn same_time_events_scheduled_mid_batch_run_after_it() {
        let mut sim = Simulation::new(Vec::new());
        let t = SimTime::from_secs(1);
        sim.schedule_at(t, move |log: &mut Vec<u32>, ctx| {
            log.push(0);
            let now = ctx.now();
            ctx.at(now, |log: &mut Vec<u32>, _| log.push(9));
        });
        sim.schedule_at(t, |log: &mut Vec<u32>, _| log.push(1));
        sim.run();
        assert_eq!(*sim.state(), vec![0, 1, 9], "late arrival has the highest seq");
    }

    #[test]
    fn periodic_rearm_sequences_after_handler_events() {
        // The rearm must take its seq *after* events the handler schedules,
        // so a same-time follower dispatches before the next tick's peers.
        let mut sim = Simulation::new(Vec::new());
        sim.schedule_periodic(SimDuration::from_secs(1), |log: &mut Vec<&str>, ctx| {
            log.push("tick");
            ctx.after(SimDuration::from_secs(1), |log: &mut Vec<&str>, _| log.push("follow"));
            if log.iter().filter(|s| **s == "tick").count() < 2 {
                Some(SimDuration::from_secs(1))
            } else {
                None
            }
        });
        sim.run();
        assert_eq!(*sim.state(), vec!["tick", "follow", "tick", "follow"]);
    }
}
