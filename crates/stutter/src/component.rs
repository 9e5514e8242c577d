//! The paper's component: a performance specification and the fault
//! timeline that shapes what the component delivers (§3.1).
//!
//! A [`Component`] is a nominal rate (its specification, in units/second)
//! plus the [`SlowdownProfile`] that scales it over time. Disks, links,
//! bricks, group members, cluster CPUs and plane-observed components are
//! all this one type; the models differ only in what they do with the
//! rate.

use simcore::resource::RateProfile;
use simcore::time::SimTime;

use crate::injector::{Cursor, SlowdownProfile};

/// A rate source under a fail-stutter timeline.
#[derive(Clone, Debug)]
pub struct Component {
    /// Nominal (specified) rate in units/second.
    pub nominal: f64,
    /// The timeline that scales the nominal rate.
    pub profile: SlowdownProfile,
}

impl Component {
    /// A component delivering `nominal` units/second with a nominal
    /// timeline.
    ///
    /// # Panics
    ///
    /// Panics if `nominal` is not positive.
    pub fn new(nominal: f64) -> Self {
        assert!(nominal > 0.0, "nominal rate must be positive, got {nominal}");
        Component { nominal, profile: SlowdownProfile::nominal() }
    }

    /// Attaches a fail-stutter timeline (replacing any previous one).
    pub fn with_profile(mut self, profile: SlowdownProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The delivered rate at `t` (0 during blackouts and after failure).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.nominal * self.profile.multiplier_at(t)
    }

    /// [`Component::rate_at`] for a caller reading in time order: the
    /// search for `t` starts at `cursor`, which moves to the segment
    /// holding `t`.
    pub fn rate_from(&self, cursor: &mut Cursor, t: SimTime) -> f64 {
        self.nominal * self.profile.multiplier_from(cursor, t)
    }

    /// The delivered rate as an absolute [`RateProfile`]; a permanent
    /// failure becomes a zero-rate tail.
    pub fn rate_profile(&self) -> RateProfile {
        self.profile.to_rate_profile(self.nominal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_timeline_scales_the_nominal_rate() {
        let c = Component::new(10.0).with_profile(
            SlowdownProfile::from_breakpoints(vec![
                (SimTime::ZERO, 1.0),
                (SimTime::from_secs(10), 0.5),
            ])
            .with_failure_at(SimTime::from_secs(20)),
        );
        let mut cursor = Cursor::default();
        for (s, want) in [(5, 10.0), (15, 5.0), (25, 0.0)] {
            let t = SimTime::from_secs(s);
            assert_eq!(c.rate_at(t), want);
            assert_eq!(c.rate_from(&mut cursor, t), want);
            assert_eq!(c.rate_profile().rate_at(t), want);
        }
    }

    #[test]
    #[should_panic]
    fn a_zero_nominal_rate_is_rejected() {
        let _ = Component::new(0.0);
    }
}
