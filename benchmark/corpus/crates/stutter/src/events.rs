//! Bridging fault events and timelines.
//!
//! Experiment drivers sometimes want to specify faults as an explicit list
//! of [`FaultEvent`]s ("pair 3 stutters at 40% from t=100 for 60 s; disk 7
//! fail-stops at t=500") rather than as stochastic injectors.
//! [`profile_from_events`] compiles such a list into a
//! [`SlowdownProfile`]; [`events_from_profile`] recovers the event view of
//! a timeline for logging and assertions.

use crate::fault::{ComponentId, FaultEvent, FaultKind};
use crate::injector::SlowdownProfile;
use simcore::time::{SimDuration, SimTime};

/// Compiles a list of fault events for one component into a timeline.
///
/// Overlapping performance faults multiply (a component under two
/// independent 50% faults runs at 25%). A correctness fault makes the
/// profile fail at the earliest such event's start; its duration is
/// ignored (fail-stop components do not come back).
pub fn profile_from_events(events: &[FaultEvent]) -> SlowdownProfile {
    let mut profile = SlowdownProfile::nominal();
    for e in events {
        match e.kind {
            FaultKind::Correctness => {
                profile = profile.with_failure_at(e.at);
            }
            FaultKind::Performance { severity } => {
                let mut bps: Vec<(SimTime, f64)> = vec![(SimTime::ZERO, 1.0)];
                if e.at > SimTime::ZERO {
                    bps.push((e.at, severity));
                } else {
                    bps[0].1 = severity;
                }
                if let Some(d) = e.duration {
                    let end = e.at + d;
                    if end > e.at {
                        bps.push((end, 1.0));
                    }
                }
                profile = profile.compose(&SlowdownProfile::from_breakpoints(bps));
            }
        }
    }
    profile
}

/// Recovers the event view of a timeline: one performance-fault event per
/// sub-nominal segment (with the segment's multiplier as severity) and a
/// correctness event at the failure instant, if any.
pub fn events_from_profile(component: ComponentId, profile: &SlowdownProfile) -> Vec<FaultEvent> {
    let mut events = Vec::new();
    let segments = profile.segments();
    for (i, &(start, m)) in segments.iter().enumerate() {
        if let Some(f) = profile.fail_at() {
            if start >= f {
                break;
            }
        }
        if m >= 1.0 {
            continue;
        }
        // The segment ends at the next breakpoint, the failure instant, or
        // never.
        let natural_end = segments.get(i + 1).map(|&(t, _)| t);
        let end = match (natural_end, profile.fail_at()) {
            (Some(n), Some(f)) => Some(n.min(f)),
            (Some(n), None) => Some(n),
            (None, Some(f)) => Some(f),
            (None, None) => None,
        };
        let duration = end.map(|e| e - start);
        let kind = if m > 0.0 {
            FaultKind::Performance { severity: m }
        } else {
            // A zero-rate segment with an end is a blackout: model it as a
            // performance fault of (near-)zero severity for reporting.
            FaultKind::Performance { severity: f64::MIN_POSITIVE }
        };
        events.push(FaultEvent { component, at: start, duration, kind });
    }
    if let Some(f) = profile.fail_at() {
        events.push(FaultEvent { component, at: f, duration: None, kind: FaultKind::Correctness });
    }
    events
}

/// Convenience constructor: a performance fault on `component`.
pub fn perf_fault(
    component: ComponentId,
    at: SimTime,
    duration: Option<SimDuration>,
    severity: f64,
) -> FaultEvent {
    FaultEvent { component, at, duration, kind: FaultKind::performance(severity) }
}

/// Convenience constructor: a fail-stop on `component`.
pub fn fail_stop(component: ComponentId, at: SimTime) -> FaultEvent {
    FaultEvent { component, at, duration: None, kind: FaultKind::Correctness }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: ComponentId = ComponentId(0);

    #[test]
    fn single_bounded_fault_round_trips() {
        let events =
            vec![perf_fault(C, SimTime::from_secs(100), Some(SimDuration::from_secs(60)), 0.4)];
        let p = profile_from_events(&events);
        assert_eq!(p.multiplier_at(SimTime::from_secs(50)), 1.0);
        assert_eq!(p.multiplier_at(SimTime::from_secs(130)), 0.4);
        assert_eq!(p.multiplier_at(SimTime::from_secs(161)), 1.0);

        let back = events_from_profile(C, &p);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].at, SimTime::from_secs(100));
        assert_eq!(back[0].duration, Some(SimDuration::from_secs(60)));
        assert!(
            matches!(back[0].kind, FaultKind::Performance { severity } if (severity - 0.4).abs() < 1e-12)
        );
    }

    #[test]
    fn overlapping_faults_multiply() {
        let events = vec![
            perf_fault(C, SimTime::from_secs(0), None, 0.5),
            perf_fault(C, SimTime::from_secs(10), Some(SimDuration::from_secs(10)), 0.5),
        ];
        let p = profile_from_events(&events);
        assert_eq!(p.multiplier_at(SimTime::from_secs(5)), 0.5);
        assert_eq!(p.multiplier_at(SimTime::from_secs(15)), 0.25);
        assert_eq!(p.multiplier_at(SimTime::from_secs(25)), 0.5);
    }

    #[test]
    fn correctness_fault_cuts_the_timeline() {
        let events = vec![
            perf_fault(C, SimTime::from_secs(10), None, 0.6),
            fail_stop(C, SimTime::from_secs(100)),
        ];
        let p = profile_from_events(&events);
        assert_eq!(p.fail_at(), Some(SimTime::from_secs(100)));
        assert_eq!(p.multiplier_at(SimTime::from_secs(200)), 0.0);

        let back = events_from_profile(C, &p);
        assert!(matches!(back.last().expect("events").kind, FaultKind::Correctness));
        // The open-ended performance fault is truncated at the failure.
        let pf = &back[0];
        assert_eq!(pf.duration, Some(SimDuration::from_secs(90)));
    }

    #[test]
    fn fault_active_at_zero_applies_immediately() {
        let events = vec![perf_fault(C, SimTime::ZERO, None, 0.3)];
        let p = profile_from_events(&events);
        assert_eq!(p.multiplier_at(SimTime::ZERO), 0.3);
    }

    #[test]
    fn empty_event_list_is_nominal() {
        let p = profile_from_events(&[]);
        assert_eq!(p, SlowdownProfile::nominal());
        assert!(events_from_profile(C, &p).is_empty());
    }

    #[test]
    fn earliest_correctness_fault_wins() {
        let events =
            vec![fail_stop(C, SimTime::from_secs(200)), fail_stop(C, SimTime::from_secs(100))];
        let p = profile_from_events(&events);
        assert_eq!(p.fail_at(), Some(SimTime::from_secs(100)));
    }
}
