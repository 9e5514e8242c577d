//! Fault injection: generating performance-fault timelines.
//!
//! An [`Injector`] turns a phenomenon description into a
//! [`SlowdownProfile`]: a piecewise-constant multiplier `m(t) ∈ [0, 1]`
//! applied to a component's nominal speed, plus an optional permanent
//! fail-stop instant. The catalog below covers the classes documented in
//! paper §2:
//!
//! | Injector | §2 phenomena |
//! |---|---|
//! | [`Injector::StaticSlowdown`] | fault-masked caches, bad-block-heavy disks, aged file systems, slow cluster nodes |
//! | [`Injector::Blackouts`] | SCSI timeouts/bus resets, thermal recalibration, switch deadlock recovery |
//! | [`Injector::Stutter`] | generic erratic performance (Vesta variance, nondeterministic CPUs) |
//! | [`Injector::Episodes`] | CPU hogs, memory hogs, garbage collection |
//! | [`Injector::Wearout`] | erratic performance as an early indicator of impending failure (§3.3) |
//! | [`Injector::Compose`] | real components suffer several at once |
//!
//! Profiles are sampled against a deterministic [`Stream`], so a given seed
//! always produces the same fault timeline.

use simcore::dist::{Distribution, Exponential, TwoPoint, Uniform};
use simcore::resource::{union, FcfsServer, Grant, RateProfile};
use simcore::rng::Stream;
use simcore::time::{SimDuration, SimTime};

/// A distribution over durations, samplable without trait objects.
#[derive(Clone, Debug, PartialEq)]
pub enum DurationDist {
    /// Always the same duration.
    Const(SimDuration),
    /// Exponential with the given mean.
    Exp {
        /// Mean duration.
        mean: SimDuration,
    },
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: SimDuration,
        /// Exclusive upper bound.
        hi: SimDuration,
    },
}

impl DurationDist {
    /// Draws one duration.
    pub fn sample(&self, rng: &mut Stream) -> SimDuration {
        let secs = match *self {
            DurationDist::Const(d) => return d,
            DurationDist::Exp { mean } => Exponential::with_mean(mean.as_secs_f64()).sample(rng),
            DurationDist::Uniform { lo, hi } => {
                Uniform::new(lo.as_secs_f64(), hi.as_secs_f64()).sample(rng)
            }
        };
        SimDuration::from_secs_f64(secs.max(0.0))
    }
}

/// A distribution over slowdown multipliers in `[0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub enum FactorDist {
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// `a` with probability `p`, else `b` — the Vesta-style bimodal shape.
    TwoPoint {
        /// Probability of `a`.
        p: f64,
        /// Common-case multiplier.
        a: f64,
        /// Tail multiplier.
        b: f64,
    },
}

impl FactorDist {
    /// Draws one multiplier, clamped into `[0, 1]`.
    pub fn sample(&self, rng: &mut Stream) -> f64 {
        let x = match *self {
            FactorDist::Uniform { lo, hi } => Uniform::new(lo, hi).sample(rng),
            FactorDist::TwoPoint { p, a, b } => TwoPoint { p, a, b }.sample(rng),
        };
        x.clamp(0.0, 1.0)
    }
}

/// A component's performance timeline: a piecewise-constant speed multiplier
/// (a [`RateProfile`] with every rate in `[0, 1]`, read through its
/// [`Cursor`]) plus an optional permanent fail-stop instant.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowdownProfile {
    steps: RateProfile,
    fail_at: Option<SimTime>,
}

/// Where a forward reader of a [`SlowdownProfile`] left off: the
/// [`RateProfile`] cursor over its multipliers.
pub use simcore::resource::Cursor;

impl SlowdownProfile {
    /// A profile that always runs at full speed.
    pub fn nominal() -> Self {
        SlowdownProfile { steps: RateProfile::constant(1.0), fail_at: None }
    }

    /// Builds a profile from raw `(start, multiplier)` breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if empty, unsorted, not starting at zero, or if a multiplier
    /// is outside `[0, 1]`.
    pub fn from_breakpoints(segments: Vec<(SimTime, f64)>) -> Self {
        for &(_, m) in &segments {
            assert!((0.0..=1.0).contains(&m), "multiplier {m} out of [0,1]");
        }
        SlowdownProfile { steps: RateProfile::from_breakpoints(segments), fail_at: None }
    }

    /// Marks the component as permanently failed from `t` on.
    pub fn with_failure_at(mut self, t: SimTime) -> Self {
        self.fail_at = Some(match self.fail_at {
            Some(existing) => existing.min(t),
            None => t,
        });
        self
    }

    /// The permanent fail-stop instant, if any.
    pub fn fail_at(&self) -> Option<SimTime> {
        self.fail_at
    }

    /// True if the component has absolutely failed by `t`.
    pub fn failed_at(&self, t: SimTime) -> bool {
        self.fail_at.is_some_and(|f| t >= f)
    }

    /// The speed multiplier at `t` (0 once failed).
    pub fn multiplier_at(&self, t: SimTime) -> f64 {
        self.multiplier_from(&mut Cursor::default(), t)
    }

    /// [`SlowdownProfile::multiplier_at`] for a caller reading in time
    /// order: the search for `t` starts at `cursor`, which moves to the
    /// segment holding `t`.
    #[inline]
    pub fn multiplier_from(&self, cursor: &mut Cursor, t: SimTime) -> f64 {
        if self.failed_at(t) {
            return 0.0;
        }
        self.steps.rate_from(cursor, t)
    }

    /// The raw segments (excluding the failure cut-off).
    pub fn segments(&self) -> &[(SimTime, f64)] {
        self.steps.segments()
    }

    /// The earliest instant at or after `t` with a positive multiplier
    /// (i.e. when a blacked-out component next makes progress), or `None`
    /// if it never runs again.
    pub fn next_active(&self, t: SimTime) -> Option<SimTime> {
        self.next_active_from(&mut Cursor::default(), t)
    }

    /// [`SlowdownProfile::next_active`] for a caller reading in time
    /// order: the search for `t` starts at `cursor`, which moves to the
    /// segment holding the returned instant.
    #[inline]
    pub fn next_active_from(&self, cursor: &mut Cursor, t: SimTime) -> Option<SimTime> {
        if self.failed_at(t) {
            return None;
        }
        self.steps.active_from(cursor, t).filter(|&at| !self.failed_at(at))
    }

    /// The stuttering-FIFO service rule: serves a request arriving at
    /// `now` at `server`, the FIFO queue in front of the component this
    /// timeline shapes.
    ///
    /// Service waits for the timeline's first active instant once the
    /// FIFO frees, and runs at the multiplier of that instant: `service`
    /// gets that multiplier (always positive) and returns the request's
    /// service time. It is called only for a request that starts. Returns
    /// `None`, leaving `server` untouched, if the component never runs
    /// again. Reads go through `cursor`, so arrivals in time order step
    /// forward through the timeline.
    // Inlined into each caller: every gossip delivery runs it, and
    // campaign-plane read about 2.5% slower with it out of line.
    #[inline]
    pub fn serve(
        &self,
        cursor: &mut Cursor,
        server: &mut FcfsServer,
        now: SimTime,
        service: impl FnOnce(f64) -> SimDuration,
    ) -> Option<Grant> {
        let queue_start = now.max(server.next_free());
        let start = self.next_active_from(cursor, queue_start)?;
        let m = self.multiplier_from(cursor, start);
        debug_assert!(m > 0.0, "service must start in an active segment");
        server.block_until(start);
        Some(server.serve(now, service(m)))
    }

    /// Converts to an absolute [`RateProfile`] for a component whose
    /// nominal speed is `nominal` units/second. A permanent failure becomes
    /// a zero-rate tail.
    pub fn to_rate_profile(&self, nominal: f64) -> RateProfile {
        let fail = self.fail_at.unwrap_or(SimTime::MAX);
        let live = self.segments().iter().take_while(|&&(start, _)| start < fail);
        let mut bps: Vec<(SimTime, f64)> = live.map(|&(start, m)| (start, nominal * m)).collect();
        bps.extend(self.fail_at.map(|f| (f, 0.0)));
        RateProfile::from_breakpoints(bps)
    }

    /// Pointwise product of two profiles (a component subject to both).
    pub fn compose(&self, other: &SlowdownProfile) -> SlowdownProfile {
        let (a, b) = (self.segments().iter(), other.segments().iter());
        let (mut mine, mut theirs) = (Cursor::default(), Cursor::default());
        let segments = union(a.map(|&(t, _)| t), b.map(|&(t, _)| t))
            .map(|t| {
                let m = self.steps.rate_from(&mut mine, t);
                (t, m * other.steps.rate_from(&mut theirs, t))
            })
            .collect();
        let fail_at = match (self.fail_at, other.fail_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        SlowdownProfile { steps: RateProfile::from_breakpoints(segments), fail_at }
    }

    /// The time-average multiplier over `[ZERO, horizon]` (failure counts
    /// as zero speed).
    pub fn mean_multiplier(&self, horizon: SimDuration) -> f64 {
        let end = SimTime::ZERO + horizon;
        let running = self.fail_at.map_or(end, |f| f.min(end));
        self.steps.integrate(SimTime::ZERO, running) / horizon.as_secs_f64()
    }
}

/// A generator of [`SlowdownProfile`]s for one phenomenon class.
///
/// # Examples
///
/// ```
/// use simcore::prelude::*;
/// use stutter::prelude::*;
///
/// // GC-like pauses: full stops of ~2 s every ~30 s.
/// let inj = Injector::Blackouts {
///     interarrival: DurationDist::Exp { mean: SimDuration::from_secs(30) },
///     duration: DurationDist::Const(SimDuration::from_secs(2)),
/// };
/// let profile = inj.timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(7));
/// let mean = profile.mean_multiplier(SimDuration::from_secs(3600));
/// assert!(mean > 0.8 && mean < 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Injector {
    /// No fault: always nominal.
    NoFault,
    /// A fixed, permanent slowdown (e.g. a chip with half its cache masked
    /// out, a disk with many remapped blocks, an aged file system).
    StaticSlowdown {
        /// Permanent speed multiplier in `(0, 1]`.
        factor: f64,
    },
    /// Recurring complete stalls: the component periodically delivers
    /// nothing (SCSI bus reset, thermal recalibration, deadlock recovery).
    Blackouts {
        /// Time between the end of one blackout and the start of the next.
        interarrival: DurationDist,
        /// Blackout length.
        duration: DurationDist,
    },
    /// Erratic performance: at random intervals the component's speed is
    /// redrawn from a factor distribution.
    Stutter {
        /// How long each speed level persists.
        hold: DurationDist,
        /// Distribution of speed levels.
        factor: FactorDist,
    },
    /// Interference episodes: normally nominal, but during an episode the
    /// component runs at `factor` (hog processes, garbage collection).
    Episodes {
        /// Gap between episodes.
        interarrival: DurationDist,
        /// Episode length.
        duration: DurationDist,
        /// Speed multiplier during an episode, in `[0, 1)`.
        factor: f64,
    },
    /// Progressive wear-out: nominal until `onset`, then linear decline to
    /// `floor` over `ramp`, then (optionally) permanent failure — erratic
    /// performance as an early indicator of absolute failure (§3.3).
    Wearout {
        /// When degradation begins.
        onset: SimTime,
        /// How long the decline takes.
        ramp: SimDuration,
        /// The multiplier reached at the end of the decline.
        floor: f64,
        /// Whether the component fail-stops at the end of the ramp plus
        /// this grace period.
        fail_after: Option<SimDuration>,
    },
    /// Several phenomena at once; profiles multiply.
    Compose(Vec<Injector>),
}

impl Injector {
    /// Generates a timeline covering `[0, horizon]`.
    pub fn timeline(&self, horizon: SimDuration, rng: &mut Stream) -> SlowdownProfile {
        let end = SimTime::ZERO + horizon;
        match self {
            Injector::NoFault => SlowdownProfile::nominal(),
            Injector::StaticSlowdown { factor } => {
                assert!(*factor > 0.0 && *factor <= 1.0, "factor {factor} out of (0,1]");
                SlowdownProfile::from_breakpoints(vec![(SimTime::ZERO, *factor)])
            }
            Injector::Blackouts { interarrival, duration } => {
                episodes(interarrival, duration, 0.0, end, rng)
            }
            Injector::Stutter { hold, factor } => {
                let mut bps = vec![(SimTime::ZERO, factor.sample(rng))];
                let mut t = SimTime::ZERO;
                loop {
                    t += hold.sample(rng).max(SimDuration::from_nanos(1));
                    if t >= end {
                        break;
                    }
                    bps.push((t, factor.sample(rng)));
                }
                SlowdownProfile::from_breakpoints(bps)
            }
            Injector::Episodes { interarrival, duration, factor } => {
                assert!((0.0..1.0).contains(factor), "episode factor {factor} out of [0,1)");
                episodes(interarrival, duration, *factor, end, rng)
            }
            Injector::Wearout { onset, ramp, floor, fail_after } => {
                assert!((0.0..=1.0).contains(floor), "floor {floor} out of [0,1]");
                let mut bps: Vec<(SimTime, f64)> = vec![(SimTime::ZERO, 1.0)];
                // Piecewise-linear decline approximated in 16 steps. Clamp
                // the onset to 1 ns so the first step never collides with
                // the mandatory segment at time zero.
                const STEPS: u64 = 16;
                let onset = (*onset).max(SimTime::from_nanos(1));
                for i in 0..STEPS {
                    let frac = (i + 1) as f64 / STEPS as f64;
                    let t = onset + ramp.mul_f64((i as f64) / STEPS as f64);
                    let m = 1.0 + frac * (floor - 1.0);
                    match bps.last_mut() {
                        // A ramp shorter than the step resolution collapses
                        // steps onto one instant; keep the deepest level.
                        Some(last) if last.0 >= t => last.1 = last.1.min(m),
                        _ => bps.push((t, m)),
                    }
                }
                let ramp_end = onset + *ramp;
                let mut profile = SlowdownProfile::from_breakpoints(bps);
                if let Some(grace) = fail_after {
                    profile = profile.with_failure_at(ramp_end + *grace);
                }
                profile
            }
            Injector::Compose(parts) => {
                let mut acc = SlowdownProfile::nominal();
                for (i, p) in parts.iter().enumerate() {
                    let mut sub = rng.derive(&format!("compose-{i}"));
                    acc = acc.compose(&p.timeline(horizon, &mut sub));
                }
                acc
            }
        }
    }
}

/// Nominal speed broken by episodes at `factor`: a gap drawn from
/// `interarrival`, then an episode drawn from `duration`, and again, until
/// the horizon `end`. Blackouts are the `factor = 0` case.
fn episodes(
    interarrival: &DurationDist,
    duration: &DurationDist,
    factor: f64,
    end: SimTime,
    rng: &mut Stream,
) -> SlowdownProfile {
    let mut bps = vec![(SimTime::ZERO, 1.0)];
    let mut t = SimTime::ZERO;
    loop {
        t += interarrival.sample(rng).max(SimDuration::from_nanos(1));
        if t >= end {
            break;
        }
        let d = duration.sample(rng).max(SimDuration::from_nanos(1));
        bps.push((t, factor));
        t += d;
        bps.push((t, 1.0));
        if t >= end {
            break;
        }
    }
    SlowdownProfile::from_breakpoints(bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Stream {
        Stream::from_seed(42)
    }

    const HOUR: SimDuration = SimDuration::from_secs(3600);

    #[test]
    fn nominal_profile_is_identity() {
        let p = SlowdownProfile::nominal();
        assert_eq!(p.multiplier_at(SimTime::from_secs(123)), 1.0);
        assert!((p.mean_multiplier(HOUR) - 1.0).abs() < 1e-12);
        assert_eq!(p.fail_at(), None);
    }

    #[test]
    fn static_slowdown_is_constant() {
        let p = Injector::StaticSlowdown { factor: 0.7 }.timeline(HOUR, &mut rng());
        assert_eq!(p.multiplier_at(SimTime::ZERO), 0.7);
        assert_eq!(p.multiplier_at(SimTime::from_secs(1800)), 0.7);
        assert!((p.mean_multiplier(HOUR) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn blackouts_drop_mean_multiplier() {
        // 1 s blackout every ~10 s → ~0.9 duty cycle.
        let inj = Injector::Blackouts {
            interarrival: DurationDist::Exp { mean: SimDuration::from_secs(10) },
            duration: DurationDist::Const(SimDuration::from_secs(1)),
        };
        let p = inj.timeline(HOUR, &mut rng());
        let mean = p.mean_multiplier(HOUR);
        assert!((0.85..0.95).contains(&mean), "mean {mean}");
        // Multipliers only take the values 0 and 1.
        for &(_, m) in p.segments() {
            assert!(m == 0.0 || m == 1.0);
        }
    }

    #[test]
    fn stutter_redraws_levels() {
        let inj = Injector::Stutter {
            hold: DurationDist::Const(SimDuration::from_secs(60)),
            factor: FactorDist::TwoPoint { p: 0.8, a: 1.0, b: 0.2 },
        };
        let p = inj.timeline(HOUR, &mut rng());
        assert_eq!(p.segments().len(), 60);
        let mean = p.mean_multiplier(HOUR);
        assert!((0.7..0.95).contains(&mean), "mean {mean}");
    }

    #[test]
    fn episodes_alternate_factor_and_nominal() {
        let inj = Injector::Episodes {
            interarrival: DurationDist::Const(SimDuration::from_secs(100)),
            duration: DurationDist::Const(SimDuration::from_secs(50)),
            factor: 0.5,
        };
        let p = inj.timeline(SimDuration::from_secs(300), &mut rng());
        // t=100..150 is an episode.
        assert_eq!(p.multiplier_at(SimTime::from_secs(99)), 1.0);
        assert_eq!(p.multiplier_at(SimTime::from_secs(120)), 0.5);
        assert_eq!(p.multiplier_at(SimTime::from_secs(160)), 1.0);
    }

    #[test]
    fn wearout_declines_then_fails() {
        let inj = Injector::Wearout {
            onset: SimTime::from_secs(1000),
            ramp: SimDuration::from_secs(1000),
            floor: 0.2,
            fail_after: Some(SimDuration::from_secs(500)),
        };
        let p = inj.timeline(HOUR, &mut rng());
        assert_eq!(p.multiplier_at(SimTime::from_secs(500)), 1.0);
        let mid = p.multiplier_at(SimTime::from_secs(1500));
        assert!(mid < 1.0 && mid > 0.2, "mid-ramp multiplier {mid}");
        assert!((p.multiplier_at(SimTime::from_secs(2100)) - 0.2).abs() < 1e-9);
        assert_eq!(p.fail_at(), Some(SimTime::from_secs(2500)));
        assert_eq!(p.multiplier_at(SimTime::from_secs(2600)), 0.0);
    }

    #[test]
    fn next_active_skips_blackouts() {
        let p = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(10), 0.0),
            (SimTime::from_secs(20), 1.0),
        ]);
        assert_eq!(p.next_active(SimTime::from_secs(5)), Some(SimTime::from_secs(5)));
        assert_eq!(p.next_active(SimTime::from_secs(15)), Some(SimTime::from_secs(20)));
        let failed = p.clone().with_failure_at(SimTime::from_secs(12));
        assert_eq!(failed.next_active(SimTime::from_secs(15)), None);
    }

    #[test]
    fn cursor_reads_agree_with_the_timeline_in_any_order() {
        // Half speed in odd seconds, stopped every tenth, failed from 90 s.
        let level = |s: u64| match s {
            90.. => 0.0,
            _ if s % 10 == 5 => 0.0,
            _ if s % 2 == 1 => 0.5,
            _ => 1.0,
        };
        let p = SlowdownProfile::from_breakpoints(
            (0..100).map(|s| (SimTime::from_secs(s), level(s))).collect(),
        )
        .with_failure_at(SimTime::from_secs(90));
        let mut cursor = Cursor::default();
        // Forward: repeated, one step, 2, 3 and 4 steps, far jumps; then
        // backwards and past the end.
        for s in [0, 0, 1, 2, 3, 4, 6, 9, 13, 40, 41, 39, 2, 70, 89, 90, 60, 100, 250] {
            let t = SimTime::from_secs(s);
            assert_eq!(p.multiplier_from(&mut cursor, t), level(s), "multiplier at {s} s");
        }
        let mut cursor = Cursor::default();
        for (s, next) in
            [(4, Some(4)), (5, Some(6)), (15, Some(16)), (85, Some(86)), (89, Some(89))]
        {
            let t = SimTime::from_secs(s);
            assert_eq!(p.next_active_from(&mut cursor, t), next.map(SimTime::from_secs));
            assert_eq!(p.next_active(t), next.map(SimTime::from_secs));
        }
        assert_eq!(p.next_active_from(&mut cursor, SimTime::from_secs(90)), None);
        assert_eq!(
            p.next_active_from(&mut cursor, SimTime::from_secs(25)),
            Some(SimTime::from_secs(26))
        );
    }

    #[test]
    fn compose_multiplies() {
        let a = SlowdownProfile::from_breakpoints(vec![(SimTime::ZERO, 0.5)]);
        let b = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(10), 0.5),
        ]);
        let c = a.compose(&b);
        assert_eq!(c.multiplier_at(SimTime::from_secs(5)), 0.5);
        assert_eq!(c.multiplier_at(SimTime::from_secs(15)), 0.25);
    }

    #[test]
    fn compose_keeps_earliest_failure() {
        let a = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(100));
        let b = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(50));
        assert_eq!(a.compose(&b).fail_at(), Some(SimTime::from_secs(50)));
    }

    #[test]
    fn compose_injector_is_deterministic() {
        let inj = Injector::Compose(vec![
            Injector::StaticSlowdown { factor: 0.9 },
            Injector::Blackouts {
                interarrival: DurationDist::Exp { mean: SimDuration::from_secs(30) },
                duration: DurationDist::Const(SimDuration::from_secs(2)),
            },
        ]);
        let p1 = inj.timeline(HOUR, &mut rng());
        let p2 = inj.timeline(HOUR, &mut rng());
        assert_eq!(p1, p2);
        assert!(p1.mean_multiplier(HOUR) < 0.9 + 1e-12);
    }

    #[test]
    fn to_rate_profile_scales_and_cuts() {
        let p = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(10), 0.5),
        ])
        .with_failure_at(SimTime::from_secs(20));
        let r = p.to_rate_profile(10.0);
        assert_eq!(r.rate_at(SimTime::from_secs(5)), 10.0);
        assert_eq!(r.rate_at(SimTime::from_secs(15)), 5.0);
        assert_eq!(r.rate_at(SimTime::from_secs(25)), 0.0);
    }

    #[test]
    fn mean_multiplier_accounts_for_failure() {
        let p = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(1800));
        let mean = p.mean_multiplier(HOUR);
        assert!((mean - 0.5).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn duration_dist_samples_are_positive() {
        let mut r = rng();
        for d in [
            DurationDist::Exp { mean: SimDuration::from_secs(1) },
            DurationDist::Uniform { lo: SimDuration::ZERO, hi: SimDuration::from_secs(1) },
        ] {
            for _ in 0..100 {
                assert!(d.sample(&mut r) >= SimDuration::ZERO);
            }
        }
    }
}
