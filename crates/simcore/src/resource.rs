//! Timeline resources: queueing and rate primitives.
//!
//! Many device models reduce to "when will this request finish?". These
//! primitives answer that question calculationally, without needing event
//! callbacks, which keeps device models pure and easy to test:
//!
//! * [`FcfsServer`] — a single server with FIFO queueing discipline and
//!   blackout support (e.g. a SCSI bus reset stalls every disk on the chain).
//! * [`RateProfile`] — a piecewise-constant rate (units/second) over time,
//!   with exact integration: "how long does it take to move `u` units
//!   starting at `t`?".

use crate::time::{SimDuration, SimTime};

/// The time span granted to a request by a server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// When service began (>= arrival).
    pub start: SimTime,
    /// When service completed.
    pub finish: SimTime,
}

impl Grant {
    /// Time spent waiting plus being served.
    pub fn latency_from(&self, arrival: SimTime) -> SimDuration {
        self.finish - arrival
    }
}

/// A single FIFO server.
///
/// Requests are served in arrival order; each request occupies the server
/// for its service time. [`FcfsServer::block_until`] models externally
/// imposed blackouts (bus resets, deadlock-recovery halts, thermal
/// recalibrations) during which no request makes progress.
///
/// # Examples
///
/// ```
/// use simcore::resource::FcfsServer;
/// use simcore::time::{SimDuration, SimTime};
///
/// let mut disk = FcfsServer::new();
/// let a = disk.serve(SimTime::ZERO, SimDuration::from_millis(10));
/// let b = disk.serve(SimTime::ZERO, SimDuration::from_millis(10));
/// assert_eq!(a.finish, SimTime::from_millis(10));
/// assert_eq!(b.start, SimTime::from_millis(10)); // queued behind `a`
/// ```
#[derive(Clone, Debug, Default)]
pub struct FcfsServer {
    next_free: SimTime,
}

impl FcfsServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        FcfsServer::default()
    }

    /// Serves a request arriving at `arrival` needing `service` time.
    ///
    /// Returns the granted `[start, finish]` span and advances the server.
    pub fn serve(&mut self, arrival: SimTime, service: SimDuration) -> Grant {
        let start = arrival.max(self.next_free);
        let finish = start + service;
        self.next_free = finish;
        Grant { start, finish }
    }

    /// Prevents any service before `t` (extends the current blackout if one
    /// is already in force).
    pub fn block_until(&mut self, t: SimTime) {
        self.next_free = self.next_free.max(t);
    }

    /// The earliest instant a new request could begin service.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
}

/// A piecewise-constant rate over time, in units per second.
///
/// Breakpoints partition time into segments; the rate of the final segment
/// extends to infinity. Supports exact "transfer time" integration, which is
/// how time-varying disk and link bandwidths are modelled.
#[derive(Clone, Debug)]
pub struct RateProfile {
    // (segment start, rate). Sorted by start; first entry starts at ZERO.
    segments: Vec<(SimTime, f64)>,
}

impl RateProfile {
    /// Creates a profile with a single constant rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn constant(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "invalid rate {rate}");
        RateProfile { segments: vec![(SimTime::ZERO, rate)] }
    }

    /// Creates a profile from `(start, rate)` breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, unsorted, does not start at time zero,
    /// or contains an invalid rate.
    pub fn from_breakpoints(breakpoints: Vec<(SimTime, f64)>) -> Self {
        assert!(!breakpoints.is_empty(), "profile needs at least one segment");
        assert_eq!(breakpoints[0].0, SimTime::ZERO, "first segment must start at time zero");
        for w in breakpoints.windows(2) {
            assert!(w[0].0 < w[1].0, "breakpoints must be strictly increasing");
        }
        for &(_, r) in &breakpoints {
            assert!(r.is_finite() && r >= 0.0, "invalid rate {r}");
        }
        RateProfile { segments: breakpoints }
    }

    /// Appends a rate change at `start` (must be after every existing
    /// breakpoint).
    pub fn push(&mut self, start: SimTime, rate: f64) {
        assert!(rate.is_finite() && rate >= 0.0, "invalid rate {rate}");
        // fslint: allow(panic-path) — every RateProfile constructor seeds at least one segment
        let last = self.segments.last().expect("non-empty").0;
        assert!(start > last, "breakpoints must be strictly increasing");
        self.segments.push((start, rate));
    }

    /// The instantaneous rate at time `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let idx = self.segments.partition_point(|&(s, _)| s <= t);
        // fslint: allow(panic-path) — the first segment starts at SimTime::ZERO <= t, so partition_point >= 1
        self.segments[idx - 1].1
    }

    /// Units transferred over `[from, to]`.
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to >= from, "integration bounds out of order");
        let mut total = 0.0;
        let mut cursor = from;
        let mut idx = self.segments.partition_point(|&(s, _)| s <= from) - 1;
        while cursor < to {
            let seg_end = self.segments.get(idx + 1).map_or(SimTime::MAX, |&(s, _)| s).min(to);
            total += self.segments[idx].1 * (seg_end - cursor).as_secs_f64();
            cursor = seg_end;
            idx += 1;
        }
        total
    }

    /// The time needed to transfer `units` starting at `start`, or `None`
    /// if the profile's remaining capacity never reaches `units` (e.g. rate
    /// drops to zero forever).
    pub fn time_to_transfer(&self, start: SimTime, units: f64) -> Option<SimDuration> {
        assert!(units >= 0.0, "units must be non-negative");
        if units == 0.0 {
            return Some(SimDuration::ZERO);
        }
        let mut remaining = units;
        let mut cursor = start;
        let mut idx = self.segments.partition_point(|&(s, _)| s <= start) - 1;
        loop {
            let rate = self.segments[idx].1;
            let seg_end = self.segments.get(idx + 1).map(|&(s, _)| s);
            match seg_end {
                Some(end) => {
                    let span = (end - cursor).as_secs_f64();
                    let capacity = rate * span;
                    if capacity >= remaining {
                        let dt = remaining / rate;
                        return Some((cursor + SimDuration::from_secs_f64(dt)) - start);
                    }
                    remaining -= capacity;
                    cursor = end;
                    idx += 1;
                }
                None => {
                    if rate <= 0.0 {
                        return None;
                    }
                    let dt = remaining / rate;
                    return Some((cursor + SimDuration::from_secs_f64(dt)) - start);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_queues_in_order() {
        let mut s = FcfsServer::new();
        let a = s.serve(SimTime::ZERO, SimDuration::from_secs(2));
        let b = s.serve(SimTime::from_secs(1), SimDuration::from_secs(2));
        let c = s.serve(SimTime::from_secs(10), SimDuration::from_secs(1));
        assert_eq!(a, Grant { start: SimTime::ZERO, finish: SimTime::from_secs(2) });
        assert_eq!(b, Grant { start: SimTime::from_secs(2), finish: SimTime::from_secs(4) });
        // Idle gap before c.
        assert_eq!(c, Grant { start: SimTime::from_secs(10), finish: SimTime::from_secs(11) });
    }

    #[test]
    fn fcfs_blackout_delays_service() {
        let mut s = FcfsServer::new();
        s.block_until(SimTime::from_secs(5));
        let g = s.serve(SimTime::from_secs(1), SimDuration::from_secs(1));
        assert_eq!(g.start, SimTime::from_secs(5));
        assert_eq!(g.latency_from(SimTime::from_secs(1)), SimDuration::from_secs(5));
    }

    #[test]
    fn rate_profile_constant_transfer() {
        let p = RateProfile::constant(10.0);
        let d = p.time_to_transfer(SimTime::ZERO, 50.0).expect("finite");
        assert_eq!(d, SimDuration::from_secs(5));
        assert_eq!(p.rate_at(SimTime::from_secs(100)), 10.0);
    }

    #[test]
    fn rate_profile_piecewise_transfer() {
        // 10 u/s for 10 s, then 5 u/s.
        let p = RateProfile::from_breakpoints(vec![
            (SimTime::ZERO, 10.0),
            (SimTime::from_secs(10), 5.0),
        ]);
        // 150 units starting at t=0: 100 in first 10 s, 50 more in 10 s.
        let d = p.time_to_transfer(SimTime::ZERO, 150.0).expect("finite");
        assert_eq!(d, SimDuration::from_secs(20));
        // Starting at t=5: 50 units by t=10, then 100 more at 5 u/s = 20 s.
        let d = p.time_to_transfer(SimTime::from_secs(5), 150.0).expect("finite");
        assert_eq!(d, SimDuration::from_secs(25));
    }

    #[test]
    fn rate_profile_integrates() {
        let p = RateProfile::from_breakpoints(vec![
            (SimTime::ZERO, 10.0),
            (SimTime::from_secs(10), 0.0),
            (SimTime::from_secs(20), 2.0),
        ]);
        let total = p.integrate(SimTime::from_secs(5), SimTime::from_secs(25));
        assert!((total - (50.0 + 0.0 + 10.0)).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn rate_profile_zero_tail_is_none() {
        let p = RateProfile::from_breakpoints(vec![
            (SimTime::ZERO, 10.0),
            (SimTime::from_secs(1), 0.0),
        ]);
        assert_eq!(p.time_to_transfer(SimTime::ZERO, 100.0), None);
        assert_eq!(p.time_to_transfer(SimTime::ZERO, 10.0), Some(SimDuration::from_secs(1)));
    }

    #[test]
    fn rate_profile_zero_units_is_instant() {
        let p = RateProfile::constant(0.0);
        assert_eq!(p.time_to_transfer(SimTime::ZERO, 0.0), Some(SimDuration::ZERO));
    }
}
