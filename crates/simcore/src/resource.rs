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
//!   starting at `t`?". A [`Cursor`] reads it forward, and [`union`]
//!   merges two timelines' instants.
//! * The §3.2 static placement: [`equal_shares`] and [`apportion`] fix
//!   each server's share of the work up front, and [`barrier`] ends the
//!   run when the slowest share finishes.

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

/// A piecewise-constant rate over time, in units per second: the one
/// step timeline of the workspace.
///
/// Breakpoints partition time into segments; the rate of the final segment
/// extends to infinity. Supports exact "transfer time" integration, which is
/// how time-varying disk and link bandwidths are modelled. A fail-stutter
/// timeline (`stutter`'s `SlowdownProfile`) keeps its multipliers here too.
#[derive(Clone, Debug, PartialEq)]
pub struct RateProfile {
    // (segment start, rate). Sorted by start; first entry starts at ZERO.
    segments: Vec<(SimTime, f64)>,
}

/// Where a forward reader of a [`RateProfile`] left off.
///
/// A caller that reads one profile in time order keeps a cursor and hands
/// it to [`RateProfile::rate_from`] or [`RateProfile::active_from`]. Each
/// read then steps forward from the segment the previous read landed in,
/// instead of searching the whole timeline again. Any cursor reads
/// correctly at any instant: a read behind the cursor, or with a cursor
/// carried over from another profile, costs a search, never a wrong
/// answer. A new cursor has no position yet, so its first read searches.
#[derive(Clone, Copy, Debug)]
pub struct Cursor {
    segment: usize,
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor { segment: usize::MAX }
    }
}

impl RateProfile {
    /// Creates a profile with a single constant rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn constant(rate: f64) -> Self {
        RateProfile::from_breakpoints(vec![(SimTime::ZERO, rate)])
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

    /// The `(start, rate)` breakpoints, ascending, the first at time zero.
    pub fn segments(&self) -> &[(SimTime, f64)] {
        &self.segments
    }

    /// The instantaneous rate at time `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.rate_from(&mut Cursor::default(), t)
    }

    /// [`RateProfile::rate_at`] for a caller reading in time order: the
    /// search for `t` starts at `cursor`, which moves to the segment
    /// holding `t`.
    // Inlined into each caller across crates: the metastable trigger,
    // every link send and every plane observation read through it.
    #[inline]
    pub fn rate_from(&self, cursor: &mut Cursor, t: SimTime) -> f64 {
        cursor.segment = self.seek(cursor.segment, t);
        self.segments.get(cursor.segment).map_or(0.0, |&(_, r)| r)
    }

    /// The earliest instant at or after `t` with a positive rate, or
    /// `None` if the rate stays zero from `t` on; `cursor` moves to the
    /// segment holding the returned instant.
    #[inline]
    pub fn active_from(&self, cursor: &mut Cursor, t: SimTime) -> Option<SimTime> {
        if self.rate_from(cursor, t) > 0.0 {
            return Some(t);
        }
        let later = self.segments.get(cursor.segment + 1..).unwrap_or_default();
        let ahead = later.iter().position(|&(_, r)| r > 0.0)?;
        cursor.segment += ahead + 1;
        Some(later[ahead].0)
    }

    /// Units transferred over `[from, to]`.
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to >= from, "integration bounds out of order");
        let mut total = 0.0;
        let mut cursor = from;
        let mut idx = self.seek(usize::MAX, from);
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
        let mut idx = self.seek(usize::MAX, start);
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

    /// The segment holding `t`: the index of the last breakpoint at or
    /// before it. The first segment starts at time zero, so there always
    /// is one.
    ///
    /// The search starts at segment `from`. If that segment starts after
    /// `t`, or `from` is past the end, it binary-searches the whole list.
    /// Otherwise it gallops forward: it probes 1, 2, 4, … segments further
    /// on until a breakpoint lies past `t`, then binary-searches the last
    /// stride. A read that stays in the segment it started from costs two
    /// comparisons, and a read `d` segments on costs O(log d).
    #[inline]
    fn seek(&self, from: usize, t: SimTime) -> usize {
        let segs = &self.segments;
        let mut at = match segs.get(from) {
            Some(&(start, _)) if start <= t => from,
            _ => return segs.partition_point(|&(s, _)| s <= t).saturating_sub(1),
        };
        let mut stride = 1;
        while segs.get(at + stride).is_some_and(|&(s, _)| s <= t) {
            at += stride;
            stride *= 2;
        }
        if stride == 1 {
            return at; // still in the segment the search started from
        }
        // Now segs[at] starts at or before t, and segs[at + stride] (if
        // any) after it.
        let stride_end = segs.len().min(at + stride);
        let within = segs.get(at + 1..stride_end).unwrap_or_default();
        at + within.partition_point(|&(s, _)| s <= t)
    }
}

/// The instants of two ascending sequences, ascending, each once.
pub fn union(
    a: impl Iterator<Item = SimTime>,
    b: impl Iterator<Item = SimTime>,
) -> impl Iterator<Item = SimTime> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let next = match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => return None,
        };
        a.next_if_eq(&next);
        b.next_if_eq(&next);
        Some(next)
    })
}

/// Splits `total` work items over servers in proportion to `weights`
/// (their rates), by largest remainder: each server gets the floor of its
/// quota, and the items left over go one each to the largest fractional
/// parts, so the shares sum to `total`.
///
/// # Panics
///
/// Panics unless the weights sum to a positive value.
pub fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    let sum: f64 = weights.iter().sum();
    assert!(sum > 0.0, "no server has a positive weight");
    let quotas: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut out: Vec<u64> = quotas.iter().map(|q| q.floor() as u64).collect();
    let mut left = total - out.iter().sum::<u64>();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&i, &j| {
        let fi = quotas[i] - quotas[i].floor();
        let fj = quotas[j] - quotas[j].floor();
        fj.total_cmp(&fi)
    });
    for &i in &order {
        if left == 0 {
            break;
        }
        out[i] += 1;
        left -= 1;
    }
    out
}

/// Splits `total` work items equally over `n` servers: each gets
/// `total / n`, and the first `total % n` servers one more.
pub fn equal_shares(total: u64, n: usize) -> Vec<u64> {
    let n = n as u64;
    (0..n).map(|i| total / n + u64::from(i < total % n)).collect()
}

/// Runs a static placement to its barrier: server `i` moves
/// `shares[i] · unit` units on `profiles[i]` from `start`, and the run
/// lasts until the slowest share finishes. A server with no share is
/// skipped. Returns that duration, or the index of the first server
/// whose share never finishes.
pub fn barrier(
    profiles: &[RateProfile],
    shares: &[u64],
    unit: f64,
    start: SimTime,
) -> Result<SimDuration, usize> {
    let mut slowest = SimDuration::ZERO;
    for (i, (profile, &share)) in profiles.iter().zip(shares).enumerate() {
        if share > 0 {
            slowest = slowest.max(profile.time_to_transfer(start, share as f64 * unit).ok_or(i)?);
        }
    }
    Ok(slowest)
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
    fn cursor_reads_equal_random_access_in_any_order() {
        // Rate s from second s on: a read d seconds on gallops d segments.
        let steps = (0..64).map(|s| (SimTime::from_secs(s), s as f64)).collect();
        let p = RateProfile::from_breakpoints(steps);
        let mut cursor = Cursor::default();
        for s in [0, 0, 1, 2, 3, 5, 8, 12, 13, 20, 40, 39, 2, 63, 70, 10] {
            let t = SimTime::from_secs(s);
            assert_eq!(p.rate_from(&mut cursor, t), s.min(63) as f64, "at {s} s");
        }
        assert_eq!(p.active_from(&mut cursor, SimTime::ZERO), Some(SimTime::from_secs(1)));
        assert_eq!(p.rate_from(&mut cursor, SimTime::from_secs(1)), 1.0);
    }

    #[test]
    fn apportionment_sums_to_the_total_and_follows_the_remainders() {
        // Quotas 3.5, 3.5, 3.0: the two halves tie, and the stable sort
        // hands the one leftover item to the first of them.
        assert_eq!(apportion(10, &[3.5, 3.5, 3.0]), vec![4, 3, 3]);
        // Quotas 1.6, 3.2, 5.2: the 0.6 remainder wins the leftover item.
        assert_eq!(apportion(10, &[1.0, 2.0, 3.25]), vec![2, 3, 5]);
        assert_eq!(apportion(7, &[0.0, 1.0]), vec![0, 7]);
    }

    #[test]
    #[should_panic]
    fn apportionment_needs_a_positive_weight() {
        let _ = apportion(3, &[0.0, 0.0]);
    }

    #[test]
    fn rate_profile_zero_units_is_instant() {
        let p = RateProfile::constant(0.0);
        assert_eq!(p.time_to_transfer(SimTime::ZERO, 0.0), Some(SimDuration::ZERO));
    }
}
