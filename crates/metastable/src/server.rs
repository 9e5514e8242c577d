//! The served system: a bounded FIFO queue of aggregate request cohorts,
//! plus the trigger-windowing helper that maps a stutter injector's
//! lifetime profile into a transient mid-run trigger.
//!
//! A *cohort* is a batch of identical outstanding requests — same issue
//! tick, same deadline, same attempt number — so the engine's cost per
//! tick is bounded by the handful of cohorts created per tick, not by
//! the client population. This is what lets the closed loop model 10⁵+
//! clients in a plain tick loop without per-request state.

use std::collections::{BTreeMap, VecDeque};

use simcore::time::{SimDuration, SimTime};
use stutter::injector::SlowdownProfile;

/// An aggregate batch of identical outstanding requests.
#[derive(Clone, Copy, Debug)]
pub struct Cohort {
    /// Tick at which the issuing clients give up waiting.
    pub deadline_tick: u64,
    /// 1-based attempt number of the issuing clients.
    pub attempt: u32,
    /// Requests of the batch still queued.
    pub remaining: u64,
    /// Whether the batch came from the open-arrival stream.
    pub open: bool,
}

/// One tick of service, split by request disposition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Served {
    /// Closed-loop requests served before their issuer's deadline.
    pub live_closed: u64,
    /// Open-arrival requests served before their deadline.
    pub live_open: u64,
    /// Orphaned requests served after their issuer gave up (pure waste).
    pub orphan: u64,
    /// Orphaned requests discarded unserved by age-based shedding.
    pub dropped_expired: u64,
}

/// A cohort remainder newly orphaned by its deadline passing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expired {
    /// Attempt number the timed-out clients were on.
    pub attempt: u32,
    /// How many requests timed out.
    pub count: u64,
    /// Whether the cohort came from the open-arrival stream.
    pub open: bool,
}

/// Bounded FIFO queue of request cohorts.
///
/// Cohorts are pushed with non-decreasing deadlines (the engine's
/// deadline is the issue tick plus one fixed timeout), so FIFO order is
/// deadline order and the orphaned cohorts — those whose issuers timed
/// out — are always a prefix of the queue. `orphaned` counts that
/// prefix; every cohort behind it is live.
#[derive(Debug)]
pub struct ServerQueue {
    cohorts: VecDeque<Cohort>,
    orphaned: usize,
    depth: u64,
    cap: u64,
}

impl ServerQueue {
    /// An empty queue admitting at most `cap` requests.
    pub fn new(cap: u64) -> Self {
        ServerQueue { cohorts: VecDeque::new(), orphaned: 0, depth: 0, cap }
    }

    /// Requests currently queued.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Admission slots left before the hard capacity bound.
    pub fn free_slots(&self) -> u64 {
        self.cap.saturating_sub(self.depth)
    }

    /// Enqueues a cohort. The caller must have clamped `remaining` to
    /// [`free_slots`](Self::free_slots); empty cohorts are ignored.
    /// Deadlines must not decrease from one push to the next.
    pub fn push(&mut self, c: Cohort) {
        if c.remaining == 0 {
            return;
        }
        debug_assert!(c.remaining <= self.free_slots(), "cohort overflows queue capacity");
        debug_assert!(
            self.cohorts.back().is_none_or(|b| b.deadline_tick <= c.deadline_tick),
            "cohort deadlines must not decrease: the orphaned prefix depends on it"
        );
        self.depth += c.remaining;
        self.cohorts.push_back(c);
    }

    /// Serves queued requests front-to-back while `credit` covers them.
    ///
    /// With `drop_expired`, orphaned cohorts at the head are discarded
    /// without consuming credit (age-based shedding: a request whose
    /// issuer already gave up is pure waste, and rejecting is cheap).
    pub fn serve(&mut self, credit: &mut f64, drop_expired: bool) -> Served {
        let mut out = Served::default();
        while let Some(c) = self.cohorts.front_mut() {
            let orphan = self.orphaned > 0;
            if drop_expired && orphan {
                out.dropped_expired += c.remaining;
                self.depth -= c.remaining;
                self.pop_front();
                continue;
            }
            let can = *credit as u64;
            if can == 0 {
                break;
            }
            let k = can.min(c.remaining);
            *credit -= k as f64;
            c.remaining -= k;
            self.depth -= k;
            if orphan {
                out.orphan += k;
            } else if c.open {
                out.live_open += k;
            } else {
                out.live_closed += k;
            }
            if c.remaining > 0 {
                break; // credit exhausted mid-cohort
            }
            self.pop_front();
        }
        out
    }

    fn pop_front(&mut self) {
        self.cohorts.pop_front();
        self.orphaned = self.orphaned.saturating_sub(1);
    }

    /// Times out the oldest live cohort whose deadline is at or before
    /// `tick` and returns its unserved remainder, or `None` once no live
    /// cohort is due. Call it until `None` each tick; cohorts fully
    /// served before their deadline have left the queue and produce
    /// nothing.
    pub fn expire_next(&mut self, tick: u64) -> Option<Expired> {
        let c = self.cohorts.get(self.orphaned)?;
        if c.deadline_tick > tick {
            return None;
        }
        self.orphaned += 1;
        Some(Expired { attempt: c.attempt, count: c.remaining, open: c.open })
    }

    /// Final queue census: (live closed, live open, orphaned) requests.
    pub fn census(&self) -> (u64, u64, u64) {
        let orphan = self.cohorts.iter().take(self.orphaned).map(|c| c.remaining).sum();
        let (mut live_closed, mut live_open) = (0, 0);
        for c in self.cohorts.iter().skip(self.orphaned) {
            if c.open {
                live_open += c.remaining;
            } else {
                live_closed += c.remaining;
            }
        }
        (live_closed, live_open, orphan)
    }
}

/// Maps an injector's lifetime [`SlowdownProfile`] into a transient
/// mid-run trigger.
///
/// The run window `[start, start + span)` replays the profile's first
/// `span × scale` of component life at `scale`× time compression;
/// outside the window capacity is nominal. A fail-stop inside the
/// replayed prefix becomes a zero-multiplier segment that ends with the
/// window — the trigger is transient *by construction*, which is exactly
/// what the sustaining-effect oracles need: any overload that persists
/// after `start + span` is sustained by the feedback loop, not by the
/// fault.
pub fn trigger_window(
    profile: &SlowdownProfile,
    start: SimTime,
    span: SimDuration,
    scale: f64,
) -> SlowdownProfile {
    assert!(scale > 0.0, "time-compression scale must be positive");
    let span_src = span.mul_f64(scale);
    let fail = profile.fail_at();
    let mut points: BTreeMap<u64, f64> = BTreeMap::new();
    points.insert(0, 1.0);
    for &(ts, m) in profile.segments() {
        let src = SimDuration::from_nanos(ts.as_nanos());
        if src >= span_src {
            break;
        }
        let failed = fail.map(|f| SimDuration::from_nanos(f.as_nanos()) <= src).unwrap_or(false);
        let eff = if failed { 0.0 } else { m.clamp(0.0, 1.0) };
        let mapped = start + src.mul_f64(1.0 / scale);
        points.insert(mapped.as_nanos(), eff);
    }
    if let Some(f) = fail {
        let src = SimDuration::from_nanos(f.as_nanos());
        if src < span_src {
            let mapped = start + src.mul_f64(1.0 / scale);
            points.insert(mapped.as_nanos(), 0.0);
        }
    }
    points.insert((start + span).as_nanos(), 1.0);
    let breakpoints =
        points.into_iter().map(|(t, m)| (SimTime::ZERO + SimDuration::from_nanos(t), m)).collect();
    SlowdownProfile::from_breakpoints(breakpoints)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cohort(deadline: u64, n: u64, attempt: u32) -> Cohort {
        Cohort { deadline_tick: deadline, attempt, remaining: n, open: false }
    }

    fn expire(q: &mut ServerQueue, tick: u64) -> Vec<Expired> {
        std::iter::from_fn(|| q.expire_next(tick)).collect()
    }

    #[test]
    fn fifo_serve_and_expire() {
        let mut q = ServerQueue::new(100);
        q.push(cohort(5, 10, 1));
        q.push(cohort(7, 4, 2));
        let mut credit = 6.0;
        let s = q.serve(&mut credit, false);
        assert_eq!(s.live_closed, 6);
        assert_eq!(q.depth(), 8);
        let expired = expire(&mut q, 5);
        assert_eq!(expired, [Expired { attempt: 1, count: 4, open: false }]);
        // orphaned head now served as waste
        let mut credit = 10.0;
        let s = q.serve(&mut credit, false);
        assert_eq!(s.orphan, 4);
        assert_eq!(s.live_closed, 4);
        assert_eq!(q.depth(), 0);
        // a cohort served in full before its deadline never times out
        assert!(expire(&mut q, 7).is_empty());
    }

    #[test]
    fn drop_expired_discards_without_credit() {
        let mut q = ServerQueue::new(100);
        q.push(cohort(1, 9, 1));
        q.push(cohort(9, 3, 1));
        assert_eq!(expire(&mut q, 1).len(), 1);
        let mut credit = 3.0;
        let s = q.serve(&mut credit, true);
        assert_eq!(s.dropped_expired, 9);
        assert_eq!(s.live_closed, 3);
        assert_eq!(credit, 0.0);
    }

    #[test]
    fn census_splits_dispositions() {
        let mut q = ServerQueue::new(100);
        q.push(cohort(1, 5, 1));
        q.push(Cohort { open: true, ..cohort(9, 2, 1) });
        expire(&mut q, 1);
        assert_eq!(q.census(), (0, 2, 5));
    }

    #[test]
    fn window_compresses_and_strips_failure() {
        // Source: nominal, degrades to 0.2 at 1000 s, fails at 2000 s.
        let p = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(1000), 0.2),
        ])
        .with_failure_at(SimTime::from_secs(2000));
        let w = trigger_window(&p, SimTime::from_secs(60), SimDuration::from_secs(30), 100.0);
        assert_eq!(w.fail_at(), None);
        assert_eq!(w.multiplier_at(SimTime::from_secs(59)), 1.0);
        assert_eq!(w.multiplier_at(SimTime::from_secs(65)), 1.0); // source 500 s
        assert_eq!(w.multiplier_at(SimTime::from_secs(75)), 0.2); // source 1500 s
        assert_eq!(w.multiplier_at(SimTime::from_secs(85)), 0.0); // past source failure
        assert_eq!(w.multiplier_at(SimTime::from_secs(90)), 1.0); // trigger removed
        assert_eq!(w.multiplier_at(SimTime::from_secs(400)), 1.0);
    }
}
