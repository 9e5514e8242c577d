//! The discrete-event queue.
//!
//! An [`EventQueue`] holds typed events `E` in a binary heap keyed by
//! `(time, seq)` and keeps the simulation clock. The caller owns the
//! dispatch loop: it pops the next event, handles it, and schedules what
//! follows — a periodic event re-arms by scheduling itself again. Events
//! at equal times pop in the order they were scheduled (FIFO tie-breaking
//! by sequence number), which — together with the deterministic RNG in
//! [`crate::rng`] — makes runs exactly reproducible.
//!
//! # Determinism contract
//!
//! Events pop in ascending `(time, seq)` order, where `seq` is one
//! counter taken at the moment of each [`EventQueue::schedule_at`] call.
//! A handler that schedules follow-ups before re-arming itself therefore
//! sequences its re-arm after them. `tests/model.rs` holds the queue to
//! this contract against a sorted-`Vec` interpreter of it.
//!
//! # Examples
//!
//! ```
//! use simcore::sim::EventQueue;
//! use simcore::time::{SimDuration, SimTime};
//!
//! // One tick every second; each tick logs the clock and re-arms itself.
//! let mut queue = EventQueue::new();
//! queue.schedule_at(SimTime::from_secs(1), "tick");
//! let mut log = Vec::new();
//! while let Some(event) = queue.pop_until(SimTime::from_secs(3)) {
//!     log.push(queue.now());
//!     queue.schedule_at(queue.now() + SimDuration::from_secs(1), event);
//! }
//! assert_eq!(log, [SimTime::from_secs(1), SimTime::from_secs(2), SimTime::from_secs(3)]);
//! ```

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The dispatch key of one queued event: its time, then the sequence
/// number its `schedule_at` call took.
///
/// Field order matters: the derived `Ord` is lexicographic over
/// `(at, seq)`, and `seq` is unique, so ordering is total and FIFO at
/// equal times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: SimTime,
    seq: u64,
}

/// One queued event, ordered by its [`EventKey`] alone.
struct Entry<E> {
    key: EventKey,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic queue of events `E` with a simulation clock.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), now: SimTime::ZERO, seq: 0 }
    }

    /// The current simulated time: the time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queues `event` at absolute time `at` with the next sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        self.heap.push(Reverse(Entry { key: EventKey { at, seq: self.seq }, event }));
        self.seq += 1;
    }

    /// Pops the next event if it is due at or before `deadline`, advancing
    /// the clock to its time; returns `None` (leaving the clock and the
    /// queue as they are) otherwise.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<E> {
        if self.heap.peek()?.0.key.at > deadline {
            return None;
        }
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.key.at;
        Some(entry.event)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Pops every event, logging it with the clock it ran at.
    fn drain<E>(queue: &mut EventQueue<E>) -> Vec<(SimTime, E)> {
        let mut log = Vec::new();
        while let Some(e) = queue.pop_until(SimTime::MAX) {
            log.push((queue.now(), e));
        }
        log
    }

    #[test]
    fn events_run_in_time_order() {
        let mut q = EventQueue::new();
        let s = SimTime::from_secs;
        q.schedule_at(s(3), 3);
        q.schedule_at(s(1), 1);
        q.schedule_at(s(2), 2);
        assert_eq!(drain(&mut q), [(s(1), 1), (s(2), 2), (s(3), 3)]);
        assert_eq!(q.now(), s(3));
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.schedule_at(SimTime::from_secs(1), i);
        }
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_works() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1u32);
        let mut seen = Vec::new();
        while let Some(n) = q.pop_until(SimTime::MAX) {
            seen.push(n);
            if n < 3 {
                q.schedule_at(q.now() + SimDuration::from_secs(1), n + 1);
            }
        }
        assert_eq!(seen, [1, 2, 3]);
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn pop_until_leaves_later_events_queued() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.pop_until(SimTime::from_secs(3)), None);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.pop_until(SimTime::from_secs(5)), Some(()));
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.pop_until(SimTime::MAX);
        q.schedule_at(SimTime::ZERO, ());
    }

    #[test]
    fn same_time_events_scheduled_mid_batch_run_after_it() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_at(t, 0);
        q.schedule_at(t, 1);
        let mut log = Vec::new();
        while let Some(e) = q.pop_until(SimTime::MAX) {
            log.push(e);
            if e == 0 {
                q.schedule_at(q.now(), 9);
            }
        }
        assert_eq!(log, [0, 1, 9], "late arrival has the highest seq");
    }

    #[test]
    fn rearm_sequences_after_handler_events() {
        // A tick that schedules a follower before re-arming itself: the
        // follower takes the lower seq, so it dispatches before the next
        // tick at the same instant.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), "tick");
        let mut log = Vec::new();
        while let Some(e) = q.pop_until(SimTime::from_secs(2)) {
            log.push(e);
            if e == "tick" {
                let next = q.now() + SimDuration::from_secs(1);
                q.schedule_at(next, "follow");
                q.schedule_at(next, "tick");
            }
        }
        assert_eq!(log, ["tick", "follow", "tick"]);
    }
}
