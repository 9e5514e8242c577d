//! The discrete-event simulation loop.
//!
//! A [`Simulation`] owns user-defined state `S`, an arena of event
//! payloads, and a pluggable [`EventQueue`] of `(time, seq, slot)` keys
//! ([`crate::queue`]). Each event is a boxed closure invoked with
//! exclusive access to the state and a [`Scheduler`] through which it can
//! read the clock and schedule further events. Events at equal times run
//! in the order they were scheduled (FIFO tie-breaking by sequence
//! number), which — together with the deterministic RNG in [`crate::rng`]
//! — makes runs exactly reproducible.
//!
//! # Determinism contract
//!
//! The dispatch order is the ascending `(time, seq)` order of scheduling
//! calls, *independent of the queue implementation*: the calendar queue
//! (default) and the binary-heap [`ReferenceQueue`](crate::queue) are
//! interchangeable bit-for-bit, and `tests/differential.rs` holds them to
//! it. Cancelled events still advance the clock and count as executed
//! (their handler is simply skipped), periodic rearms are sequenced
//! *after* anything their handler scheduled, and [`Scheduler::stop`]
//! leaves unprocessed events queued for a later `run`.
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

use std::cell::RefCell;
use std::rc::Rc;

use crate::queue::{self, EventKey, EventQueue, QueueKind};
use crate::time::{SimDuration, SimTime};

/// A boxed event handler.
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

/// A boxed periodic handler: returns the next delay, or `None` to stop.
type PeriodicFn<S> = Box<dyn FnMut(&mut S, &mut Scheduler<S>) -> Option<SimDuration>>;

/// One arena slot: the payload a queued [`EventKey`] points at.
///
/// Periodic events keep their slot across rearms, so a self-rearming
/// timer allocates exactly once for its whole lifetime (the v1 engine
/// re-boxed the closure on every rearm).
enum Slot<S> {
    /// No payload; the slot is free or its event is mid-dispatch.
    Vacant,
    /// A one-shot handler.
    Once(EventFn<S>),
    /// A self-rearming handler.
    Periodic(PeriodicFn<S>),
}

/// Cancellation flags and slot generations, shared with [`EventHandle`]s
/// through an `Rc`. A slot's generation bumps every time it is released,
/// so a stale handle (its event already fired) can never cancel the
/// slot's next tenant.
#[derive(Default)]
struct CancelSet {
    gen: Vec<u32>,
    flag: Vec<bool>,
}

impl CancelSet {
    fn grow_to(&mut self, n: usize) {
        while self.gen.len() < n {
            self.gen.push(0);
            self.flag.push(false);
        }
    }

    fn gen_of(&self, idx: usize) -> u32 {
        self.gen.get(idx).copied().unwrap_or(0)
    }

    fn flagged(&self, idx: usize) -> bool {
        self.flag.get(idx).copied().unwrap_or(false)
    }

    fn release(&mut self, idx: usize) {
        if let Some(g) = self.gen.get_mut(idx) {
            *g = g.wrapping_add(1);
        }
        if let Some(fl) = self.flag.get_mut(idx) {
            *fl = false;
        }
    }
}

/// A cancellation handle for a scheduled event.
///
/// Dropping the handle does *not* cancel the event; call
/// [`EventHandle::cancel`]. The handle addresses its event by arena slot
/// and generation, so it stays valid (and inert) after the event fires:
/// cancelling an already-fired event is a no-op, and
/// [`is_cancelled`](EventHandle::is_cancelled) reports false once the
/// event is gone.
#[derive(Clone)]
pub struct EventHandle {
    set: Rc<RefCell<CancelSet>>,
    slot: u32,
    gen: u32,
}

impl EventHandle {
    /// Cancels the event. If it has already run, this has no effect.
    pub fn cancel(&self) {
        let mut cs = self.set.borrow_mut();
        let idx = self.slot as usize;
        if cs.gen_of(idx) == self.gen {
            if let Some(fl) = cs.flag.get_mut(idx) {
                *fl = true;
            }
        }
    }

    /// True while the event is cancelled but not yet collected: after
    /// [`cancel`](Self::cancel) and before its (skipped) dispatch.
    pub fn is_cancelled(&self) -> bool {
        let cs = self.set.borrow();
        let idx = self.slot as usize;
        cs.gen_of(idx) == self.gen && cs.flagged(idx)
    }
}

impl std::fmt::Debug for EventHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventHandle")
            .field("slot", &self.slot)
            .field("gen", &self.gen)
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// The queue, arena, and clock shared by [`Simulation`] and [`Scheduler`].
struct Core<S> {
    queue: Box<dyn EventQueue>,
    arena: Vec<Slot<S>>,
    free: Vec<u32>,
    cancels: Rc<RefCell<CancelSet>>,
    now: SimTime,
    seq: u64,
    executed: u64,
    stop: bool,
}

impl<S> Core<S> {
    fn new(queue: Box<dyn EventQueue>) -> Core<S> {
        Core {
            queue,
            arena: Vec::new(),
            free: Vec::new(),
            cancels: Rc::new(RefCell::new(CancelSet::default())),
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            stop: false,
        }
    }

    /// Stores `payload` in a (reused) arena slot and queues its key at
    /// `at` with the next sequence number. Returns `(slot, generation)`.
    fn schedule_event(&mut self, at: SimTime, payload: Slot<S>) -> (u32, u32) {
        let slot = match self.free.pop() {
            Some(s) => {
                let idx = s as usize;
                if let Some(cell) = self.arena.get_mut(idx) {
                    *cell = payload;
                }
                s
            }
            None => {
                self.arena.push(payload);
                (self.arena.len() - 1) as u32
            }
        };
        let idx = slot as usize;
        let gen = {
            let mut cs = self.cancels.borrow_mut();
            cs.grow_to(idx + 1);
            cs.gen_of(idx)
        };
        let key = EventKey { at, seq: self.seq, slot };
        self.seq += 1;
        self.queue.push(key);
        (slot, gen)
    }

    /// Requeues a periodic handler in its existing slot: no allocation,
    /// and the rearm's `seq` comes after everything the handler itself
    /// scheduled — the v1 ordering, preserved bit-for-bit.
    fn requeue_periodic(&mut self, slot: u32, at: SimTime, f: PeriodicFn<S>) {
        let idx = slot as usize;
        if let Some(cell) = self.arena.get_mut(idx) {
            *cell = Slot::Periodic(f);
        }
        let key = EventKey { at, seq: self.seq, slot };
        self.seq += 1;
        self.queue.push(key);
    }

    /// Vacates a slot, bumps its generation (invalidating handles), and
    /// returns it to the free list.
    fn release(&mut self, slot: u32) {
        let idx = slot as usize;
        if let Some(cell) = self.arena.get_mut(idx) {
            *cell = Slot::Vacant;
        }
        self.cancels.borrow_mut().release(idx);
        self.free.push(slot);
    }

    fn handle(&self, slot: u32, gen: u32) -> EventHandle {
        EventHandle { set: Rc::clone(&self.cancels), slot, gen }
    }
}

/// The scheduling interface passed to every event handler.
///
/// Scheduling calls push directly onto the event queue, taking the next
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

    /// Schedules `f` at `at` and returns a cancellation handle.
    pub fn at_cancellable(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    ) -> EventHandle {
        assert!(at >= self.core.now, "cannot schedule into the past: {at} < {}", self.core.now);
        let (slot, gen) = self.core.schedule_event(at, Slot::Once(Box::new(f)));
        self.core.handle(slot, gen)
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
    /// Events already in the queue remain there (including the rest of a
    /// same-timestamp batch); a subsequent `run` call resumes processing.
    pub fn stop(&mut self) {
        self.core.stop = true;
    }
}

/// A deterministic discrete-event simulation over user state `S`.
///
/// [`Simulation::new`] uses the process-default queue kind
/// ([`crate::queue::default_queue_kind`], normally the calendar queue);
/// [`Simulation::with_queue_kind`] and [`Simulation::with_queue`] pick
/// one explicitly. Every kind dispatches the identical event order.
pub struct Simulation<S> {
    state: S,
    core: Core<S>,
}

impl<S> Simulation<S> {
    /// Creates a simulation at time zero owning `state`, using the
    /// process-default event queue.
    pub fn new(state: S) -> Self {
        Simulation::with_queue_kind(state, queue::default_queue_kind())
    }

    /// Creates a simulation using an explicit [`QueueKind`].
    pub fn with_queue_kind(state: S, kind: QueueKind) -> Self {
        Simulation::with_queue(state, kind.make())
    }

    /// Creates a simulation over a caller-provided [`EventQueue`].
    pub fn with_queue(state: S, queue: Box<dyn EventQueue>) -> Self {
        Simulation { state, core: Core::new(queue) }
    }

    /// The active event queue's short name (`"calendar"`, `"reference"`).
    pub fn queue_name(&self) -> &'static str {
        self.core.queue.name()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events executed so far (cancelled events count: their
    /// dispatch advances the clock even though the handler is skipped).
    pub fn events_executed(&self) -> u64 {
        self.core.executed
    }

    /// Number of events currently queued.
    pub fn events_pending(&self) -> usize {
        self.core.queue.len()
    }

    /// Shared access to the simulation state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the simulation state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
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

    /// Runs one event's dispatch: clock advance, cancellation check,
    /// handler call, and (for periodics) the rearm.
    fn dispatch(&mut self, key: EventKey) {
        debug_assert!(key.at >= self.core.now, "event queue went backwards");
        self.core.now = key.at;
        self.core.executed += 1;
        let idx = key.slot as usize;
        if self.core.cancels.borrow().flagged(idx) {
            self.core.release(key.slot);
            return;
        }
        let payload = match self.core.arena.get_mut(idx) {
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
                        let at = self.core.now + delay;
                        self.core.requeue_periodic(key.slot, at, f);
                    }
                    None => self.core.release(key.slot),
                }
            }
        }
    }

    /// Dispatches a popped same-timestamp batch in `seq` order. On
    /// [`Scheduler::stop`], requeues the unprocessed remainder (their
    /// original keys keep their FIFO positions) and returns true.
    fn dispatch_batch(&mut self, batch: &[EventKey]) -> bool {
        for (i, &key) in batch.iter().enumerate() {
            self.dispatch(key);
            if self.core.stop {
                for &rest in &batch[i + 1..] {
                    self.core.queue.push(rest);
                }
                return true;
            }
        }
        false
    }

    /// Executes the next event, if any, advancing the clock to it.
    ///
    /// Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.core.queue.pop_next() {
            Some(key) => {
                self.dispatch(key);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue is empty or [`Scheduler::stop`] is called.
    pub fn run(&mut self) {
        self.core.stop = false;
        let mut batch: Vec<EventKey> = Vec::new();
        loop {
            batch.clear();
            if self.core.queue.pop_batch(&mut batch).is_none() {
                return;
            }
            if self.dispatch_batch(&batch) {
                return;
            }
        }
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
        let mut batch: Vec<EventKey> = Vec::new();
        while !self.core.stop {
            match self.core.queue.min_time() {
                Some(t) if t <= deadline => {
                    batch.clear();
                    self.core.queue.pop_batch(&mut batch);
                    if self.dispatch_batch(&batch) {
                        break;
                    }
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
            .field("pending", &self.core.queue.len())
            .field("executed", &self.core.executed)
            .field("queue", &self.core.queue.name())
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
    fn cancellation_suppresses_handler() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_after(SimDuration::from_secs(1), |_, ctx| {
            let h = ctx.at_cancellable(ctx.now() + SimDuration::from_secs(1), |n: &mut u32, _| {
                *n += 100;
            });
            h.cancel();
            assert!(h.is_cancelled());
        });
        sim.run();
        assert_eq!(*sim.state(), 0);
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
    fn cancel_after_fire_is_a_noop() {
        let mut sim = Simulation::new(Vec::new());
        sim.schedule_at(SimTime::from_secs(1), |log: &mut Vec<EventHandle>, ctx| {
            let h = ctx.at_cancellable(ctx.now() + SimDuration::from_secs(1), |_, _| {});
            log.push(h);
        });
        sim.run();
        let h = sim.state()[0].clone();
        h.cancel();
        assert!(!h.is_cancelled(), "a fired event's handle is inert");
        // The (reused) slot must not be poisoned for the next event.
        sim.schedule_at(SimTime::from_secs(3), |log: &mut Vec<EventHandle>, ctx| {
            let now = ctx.now();
            let h2 = ctx.at_cancellable(now, |_, _| {});
            log.push(h2);
        });
        sim.run();
        assert_eq!(sim.state().len(), 2, "slot reuse unaffected by the stale cancel");
        assert!(!sim.state()[1].is_cancelled());
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
    fn queue_kinds_agree_on_a_mixed_program() {
        fn drive(kind: QueueKind) -> Vec<(u64, u32)> {
            let mut sim = Simulation::with_queue_kind(Vec::new(), kind);
            for i in 0..20u32 {
                let t = SimTime::from_millis(u64::from(i % 5));
                sim.schedule_at(t, move |log: &mut Vec<(u64, u32)>, ctx| {
                    log.push((ctx.now().as_nanos(), i));
                    if i % 3 == 0 {
                        ctx.after(SimDuration::from_millis(2), move |log: &mut Vec<_>, ctx| {
                            log.push((ctx.now().as_nanos(), 100 + i));
                        });
                    }
                });
            }
            sim.run();
            sim.into_state()
        }
        assert_eq!(drive(QueueKind::Calendar), drive(QueueKind::Reference));
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
