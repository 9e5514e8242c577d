//! Online detection of performance and correctness faults.
//!
//! Paper §3.1 raises two detection problems this module solves:
//!
//! 1. **The threshold rule.** "If the disk request takes longer than `T`
//!    seconds to service, consider it absolutely failed. Performance faults
//!    fill in the rest of the regime when the device is working." —
//!    [`ThresholdDetector`] implements exactly this split.
//! 2. **Ongoing classification.** A component should be judged against its
//!    [`PerfSpec`] using smoothed observations ([`EwmaDetector`]) or against
//!    its peers when no trustworthy spec exists ([`PeerRelativeDetector`] —
//!    the approach a parallel program actually has available, since "a
//!    performance failure from the perspective of one component may not
//!    manifest itself to others").

use crate::fault::HealthState;
use crate::spec::PerfSpec;
use simcore::stats::Ewma;
use simcore::time::SimDuration;

/// Classifies individual request latencies using the paper's threshold `T`.
///
/// A request slower than `T` marks the component absolutely failed; a
/// request slower than `degraded` (but under `T`) marks it
/// performance-faulty; anything else is healthy.
#[derive(Clone, Debug)]
pub struct ThresholdDetector {
    degraded: SimDuration,
    failed: SimDuration,
    state: HealthState,
    observations: u64,
}

impl ThresholdDetector {
    /// Creates a detector with a degraded threshold and the absolute
    /// threshold `T = failed`.
    ///
    /// # Panics
    ///
    /// Panics unless `degraded < failed`.
    pub fn new(degraded: SimDuration, failed: SimDuration) -> Self {
        assert!(degraded < failed, "degraded threshold must be below the failure threshold");
        ThresholdDetector { degraded, failed, state: HealthState::Healthy, observations: 0 }
    }

    /// Feeds one request latency and returns the updated health state.
    ///
    /// Failure is sticky: once a latency crosses `T` the component stays
    /// failed (fail-stop components do not come back).
    pub fn observe(&mut self, latency: SimDuration) -> HealthState {
        self.observations += 1;
        if matches!(self.state, HealthState::Failed) {
            return self.state;
        }
        self.state = if latency >= self.failed {
            HealthState::Failed
        } else if latency >= self.degraded {
            let severity =
                (self.degraded.as_secs_f64() / latency.as_secs_f64()).clamp(0.000_001, 0.999_999);
            HealthState::PerfFaulty { severity }
        } else {
            HealthState::Healthy
        };
        self.state
    }

    /// The current health verdict.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Number of latencies observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

/// Classifies a component by comparing its smoothed observed rate against a
/// [`PerfSpec`].
#[derive(Clone, Debug)]
pub struct EwmaDetector {
    spec: PerfSpec,
    ewma: Ewma,
}

impl EwmaDetector {
    /// Creates a detector judging against `spec`, smoothing with `alpha`.
    pub fn new(spec: PerfSpec, alpha: f64) -> Self {
        EwmaDetector { spec, ewma: Ewma::new(alpha) }
    }

    /// Feeds one observed rate and returns the updated health state.
    pub fn observe(&mut self, rate: f64) -> HealthState {
        let smoothed = self.ewma.observe(rate);
        self.spec.classify(smoothed)
    }

    /// The current smoothed rate, if any observation has been made.
    pub fn smoothed_rate(&self) -> Option<f64> {
        self.ewma.value()
    }

    /// The current verdict (healthy before any observation).
    pub fn state(&self) -> HealthState {
        match self.ewma.value() {
            None => HealthState::Healthy,
            Some(rate) => self.spec.classify(rate),
        }
    }

    /// The specification being enforced.
    pub fn spec(&self) -> &PerfSpec {
        &self.spec
    }
}

/// Flags components that under-perform relative to their peers.
///
/// Feed one rate per component per round; a component is performance-faulty
/// when its rate falls below `fraction` of the round's median. This needs no
/// a-priori spec, making it usable in exactly the situations the paper's
/// survey describes (identical parts behaving differently).
#[derive(Clone, Debug)]
pub struct PeerRelativeDetector {
    fraction: f64,
}

impl PeerRelativeDetector {
    /// Creates a detector flagging rates below `fraction · median(peers)`.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is in `(0, 1]`.
    pub fn new(fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0,1], got {fraction}");
        PeerRelativeDetector { fraction }
    }

    /// Classifies `round[i]` given this round's per-component rates.
    ///
    /// A zero rate is classified failed. The median is taken over the
    /// round's non-zero rates; with fewer than three of them it is too
    /// fragile, so every non-zero rate is reported healthy. `round` is
    /// scratch space: the call reorders it in place instead of allocating.
    /// It sorts the live rates by insertion: a round holds one rate per
    /// component of a plane, a handful, where a generic selection costs
    /// more than the sort.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for `round`.
    // Inlined into each caller across crates: every plane observation
    // classifies through it.
    #[inline]
    pub fn classify(&self, round: &mut [f64], i: usize) -> HealthState {
        let r = round[i];
        if r <= 0.0 {
            return HealthState::Failed;
        }
        // Move the live rates to the front; dead ones must not drag the
        // median down.
        let mut live = 0;
        for k in 0..round.len() {
            if round[k] > 0.0 {
                round.swap(live, k);
                live += 1;
            }
        }
        if live < 3 {
            return HealthState::Healthy;
        }
        let live = &mut round[..live];
        for k in 1..live.len() {
            let x = live[k];
            let mut j = k;
            while j > 0 {
                let prev = j - 1;
                if live[prev] <= x {
                    break;
                }
                live[j] = live[prev];
                j = prev;
            }
            live[j] = x;
        }
        let mid = live.len() / 2;
        let median = live[mid];
        if r < self.fraction * median {
            HealthState::PerfFaulty { severity: (r / median).clamp(f64::MIN_POSITIVE, 0.999_999) }
        } else {
            HealthState::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every component's verdict for one round, one `classify` call each
    /// on a fresh copy of the round.
    fn verdicts(d: &PeerRelativeDetector, rates: &[f64]) -> Vec<HealthState> {
        (0..rates.len()).map(|i| d.classify(&mut rates.to_vec(), i)).collect()
    }

    #[test]
    fn threshold_detector_three_regimes() {
        let mut d = ThresholdDetector::new(SimDuration::from_millis(50), SimDuration::from_secs(5));
        assert_eq!(d.observe(SimDuration::from_millis(10)), HealthState::Healthy);
        match d.observe(SimDuration::from_millis(100)) {
            HealthState::PerfFaulty { severity } => assert!((severity - 0.5).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
        assert_eq!(d.observe(SimDuration::from_secs(6)), HealthState::Failed);
        assert_eq!(d.observations(), 3);
    }

    #[test]
    fn threshold_failure_is_sticky() {
        let mut d = ThresholdDetector::new(SimDuration::from_millis(50), SimDuration::from_secs(1));
        d.observe(SimDuration::from_secs(2));
        assert_eq!(d.observe(SimDuration::from_millis(1)), HealthState::Failed);
        assert_eq!(d.state(), HealthState::Failed);
    }

    #[test]
    fn ewma_detector_smooths_transients() {
        // Spec 10 u/s with 90% floor; heavy smoothing.
        let mut d = EwmaDetector::new(PerfSpec::constant(10.0), 0.1);
        for _ in 0..10 {
            d.observe(10.0);
        }
        // One bad sample must not flag the component...
        assert_eq!(d.observe(2.0), HealthState::Healthy);
        // ...but a persistent slowdown must.
        let mut state = d.state();
        for _ in 0..50 {
            state = d.observe(2.0);
        }
        assert!(matches!(state, HealthState::PerfFaulty { .. }), "{state:?}");
    }

    #[test]
    fn ewma_detector_initial_state_healthy() {
        let d = EwmaDetector::new(PerfSpec::constant(10.0), 0.5);
        assert_eq!(d.state(), HealthState::Healthy);
        assert_eq!(d.smoothed_rate(), None);
        assert_eq!(*d.spec(), PerfSpec::constant(10.0));
    }

    #[test]
    fn peer_relative_flags_the_straggler() {
        let d = PeerRelativeDetector::new(0.8);
        let states = verdicts(&d, &[10.0, 10.1, 9.9, 10.0, 5.0]);
        assert!(states[..4].iter().all(|s| matches!(s, HealthState::Healthy)));
        assert!(matches!(states[4], HealthState::PerfFaulty { .. }));
    }

    #[test]
    fn peer_relative_zero_rate_is_failed() {
        let d = PeerRelativeDetector::new(0.8);
        let states = verdicts(&d, &[10.0, 0.0, 10.0, 10.0]);
        assert_eq!(states[1], HealthState::Failed);
    }

    #[test]
    fn peer_relative_small_groups_stay_healthy() {
        let d = PeerRelativeDetector::new(0.8);
        let states = verdicts(&d, &[10.0, 1.0]);
        assert!(states.iter().all(|s| matches!(s, HealthState::Healthy)));
    }

    #[test]
    fn peer_relative_empty_round_is_empty() {
        let d = PeerRelativeDetector::new(0.8);
        assert!(verdicts(&d, &[]).is_empty());
    }

    #[test]
    fn peer_relative_all_equal_rates_are_healthy() {
        let d = PeerRelativeDetector::new(1.0);
        // Even at the tightest fraction, equal peers are all healthy: the
        // faulty test is strict (`r < fraction · median`).
        for n in [3usize, 4, 9] {
            let states = verdicts(&d, &vec![7.5; n]);
            assert_eq!(states.len(), n);
            assert!(states.iter().all(|s| matches!(s, HealthState::Healthy)), "n={n}");
        }
    }

    #[test]
    fn peer_relative_single_peer_never_faulty() {
        let d = PeerRelativeDetector::new(0.8);
        // One live component has no peers to be judged against: healthy
        // however slow, failed only at zero.
        assert_eq!(verdicts(&d, &[0.001]), vec![HealthState::Healthy]);
        assert_eq!(verdicts(&d, &[0.0]), vec![HealthState::Failed]);
    }

    #[test]
    fn peer_relative_dead_peers_do_not_skew_the_median() {
        let d = PeerRelativeDetector::new(0.8);
        // Three dead components must not drag the median to zero and mask
        // the live straggler.
        let states = verdicts(&d, &[10.0, 10.0, 10.0, 5.0, 0.0, 0.0, 0.0]);
        assert!(matches!(states[3], HealthState::PerfFaulty { .. }), "{states:?}");
        assert!(states[4..].iter().all(|s| matches!(s, HealthState::Failed)));
    }

    #[test]
    fn peer_relative_verdicts_are_nan_free_and_severities_bounded() {
        let d = PeerRelativeDetector::new(0.8);
        // Extreme but finite inputs: tiny, huge, and zero rates mixed.
        let rates = [f64::MIN_POSITIVE, 1e300, 10.0, 10.0, 10.0, 0.0, 1e-12];
        for s in verdicts(&d, &rates) {
            if let HealthState::PerfFaulty { severity } = s {
                assert!(severity.is_finite());
                assert!((f64::MIN_POSITIVE..1.0).contains(&severity), "severity {severity}");
            }
        }
    }

    #[test]
    fn peer_relative_median_robust_to_one_outlier() {
        let d = PeerRelativeDetector::new(0.5);
        // One absurdly fast peer must not drag everyone into faultiness.
        let states = verdicts(&d, &[10.0, 10.0, 10.0, 1000.0]);
        assert!(states[..3].iter().all(|s| matches!(s, HealthState::Healthy)));
    }
}
