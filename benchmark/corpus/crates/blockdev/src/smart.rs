//! SMART-style self-monitoring: error counters as failure predictors.
//!
//! §3.3's reliability claim — "erratic performance may be an early
//! indicator of impending failure" — has a discrete sibling: *error
//! events* (grown defects, timeouts, recoveries) accelerate before a drive
//! dies. [`SmartLog`] tracks per-category event counters over time and
//! raises a replacement advisory when a counter's recent rate exceeds its
//! long-term baseline by a configurable factor — the logic real SMART
//! implementations apply to reallocated-sector counts.

use std::collections::VecDeque;

use simcore::time::{SimDuration, SimTime};

/// Categories of logged drive events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SmartEvent {
    /// A block was remapped (grown defect).
    Reallocated,
    /// A command timed out and was retried.
    Timeout,
    /// A read needed ECC recovery.
    Recovered,
    /// The drive went off-line briefly (e.g. thermal recalibration).
    Offline,
}

/// Advisory raised by the monitor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Advisory {
    /// When it fired.
    pub at: SimTime,
    /// The category that tripped it.
    pub event: SmartEvent,
    /// Events in the recent window.
    pub recent_count: u64,
    /// Long-term events per window for comparison.
    pub baseline_per_window: f64,
}

/// Configuration of the advisory rule.
#[derive(Clone, Copy, Debug)]
pub struct SmartConfig {
    /// Length of the "recent" window.
    pub window: SimDuration,
    /// Advisory when recent count exceeds `factor × baseline` per window.
    pub factor: f64,
    /// Minimum recent events before an advisory can fire (noise floor).
    pub min_events: u64,
}

impl Default for SmartConfig {
    fn default() -> Self {
        SmartConfig { window: SimDuration::from_secs(86_400), factor: 4.0, min_events: 8 }
    }
}

/// A per-drive SMART log.
#[derive(Clone, Debug)]
pub struct SmartLog {
    config: SmartConfig,
    // (time, event), ordered by time.
    recent: VecDeque<(SimTime, SmartEvent)>,
    totals: [(SmartEvent, u64); 4],
    first_event: Option<SimTime>,
    advisory: Option<Advisory>,
}

impl SmartLog {
    /// Creates an empty log.
    pub fn new(config: SmartConfig) -> Self {
        SmartLog {
            config,
            recent: VecDeque::new(),
            totals: [
                (SmartEvent::Reallocated, 0),
                (SmartEvent::Timeout, 0),
                (SmartEvent::Recovered, 0),
                (SmartEvent::Offline, 0),
            ],
            first_event: None,
            advisory: None,
        }
    }

    fn total_mut(&mut self, e: SmartEvent) -> &mut u64 {
        &mut self.totals.iter_mut().find(|(k, _)| *k == e).expect("all categories present").1
    }

    /// Total events of a category.
    pub fn total(&self, e: SmartEvent) -> u64 {
        self.totals.iter().find(|(k, _)| *k == e).expect("all categories present").1
    }

    /// Records an event at `now`; returns an advisory if this event trips
    /// the rule (at most one advisory per log).
    pub fn record(&mut self, now: SimTime, event: SmartEvent) -> Option<Advisory> {
        self.first_event.get_or_insert(now);
        *self.total_mut(event) += 1;
        self.recent.push_back((now, event));
        let cutoff =
            SimTime::from_nanos(now.as_nanos().saturating_sub(self.config.window.as_nanos()));
        while let Some(&(t, _)) = self.recent.front() {
            if t < cutoff {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        if self.advisory.is_some() {
            return None;
        }

        let recent_count = self.recent.iter().filter(|&&(_, e)| e == event).count() as u64;
        if recent_count < self.config.min_events {
            return None;
        }
        // Long-term rate: everything before the window, averaged.
        let first = self.first_event.expect("set above");
        let history = now.saturating_since(first);
        if history <= self.config.window {
            return None; // not enough history to call anything a spike
        }
        let older = self.total(event) - recent_count;
        let windows_of_history =
            (history - self.config.window).as_secs_f64() / self.config.window.as_secs_f64();
        let baseline = older as f64 / windows_of_history.max(1e-9);
        if recent_count as f64 > self.config.factor * baseline.max(0.5) {
            let a = Advisory { at: now, event, recent_count, baseline_per_window: baseline };
            self.advisory = Some(a);
            return Some(a);
        }
        None
    }

    /// The advisory, if one has fired.
    pub fn advisory(&self) -> Option<Advisory> {
        self.advisory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = 86_400;

    fn log() -> SmartLog {
        SmartLog::new(SmartConfig::default())
    }

    #[test]
    fn steady_background_rate_never_advises() {
        // One reallocation a day for 90 days: normal aging.
        let mut l = log();
        for d in 0..90 {
            assert_eq!(
                l.record(SimTime::from_secs(d * DAY + 3_600), SmartEvent::Reallocated),
                None,
                "day {d}"
            );
        }
        assert_eq!(l.advisory(), None);
        assert_eq!(l.total(SmartEvent::Reallocated), 90);
    }

    #[test]
    fn acceleration_trips_the_advisory() {
        // A year of one-a-week reallocations, then a burst of a dozen in
        // one day: the drive is dying.
        let mut l = log();
        for w in 0..52u64 {
            l.record(SimTime::from_secs(w * 7 * DAY), SmartEvent::Reallocated);
        }
        let burst_start = 53 * 7 * DAY;
        let mut fired = None;
        for i in 0..12u64 {
            if let Some(a) =
                l.record(SimTime::from_secs(burst_start + i * 3_600), SmartEvent::Reallocated)
            {
                fired = Some(a);
            }
        }
        let a = fired.expect("burst must trip the advisory");
        assert_eq!(a.event, SmartEvent::Reallocated);
        assert!(a.recent_count >= 8);
        assert!(a.baseline_per_window < 1.0, "baseline {}", a.baseline_per_window);
    }

    #[test]
    fn advisory_fires_at_most_once() {
        let mut l = log();
        for w in 0..52u64 {
            l.record(SimTime::from_secs(w * 7 * DAY), SmartEvent::Timeout);
        }
        let mut count = 0;
        for i in 0..100u64 {
            if l.record(SimTime::from_secs(53 * 7 * DAY + i * 600), SmartEvent::Timeout).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 1);
    }

    #[test]
    fn categories_tracked_independently() {
        let mut l = log();
        for w in 0..52u64 {
            l.record(SimTime::from_secs(w * 7 * DAY), SmartEvent::Recovered);
        }
        // A burst of *offline* events must not count against Recovered's
        // baseline check (and has no history of its own → min_events+history
        // gates still apply).
        for i in 0..12u64 {
            l.record(SimTime::from_secs(53 * 7 * DAY + i * 3_600), SmartEvent::Offline);
        }
        // Offline advisory is allowed (zero baseline, enough events, long
        // history since the first Recovered event).
        let adv = l.advisory();
        assert!(adv.is_none_or(|a| a.event == SmartEvent::Offline), "{adv:?}");
        assert_eq!(l.total(SmartEvent::Recovered), 52);
        assert_eq!(l.total(SmartEvent::Offline), 12);
    }

    #[test]
    fn early_burst_without_history_is_ignored() {
        // A brand-new drive throwing events on day one has no baseline to
        // compare against — the rule stays quiet rather than guessing.
        let mut l = log();
        for i in 0..20u64 {
            assert_eq!(l.record(SimTime::from_secs(i * 600), SmartEvent::Timeout), None);
        }
    }
}
