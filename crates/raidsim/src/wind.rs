//! A WiND-style self-managing array — the paper's §5 future work.
//!
//! "As a first step in this direction, we are exploring the construction
//! of fail-stutter-tolerant storage in the Wisconsin Network Disks (WiND)
//! project. Therein, we are investigating the adaptive software techniques
//! that we believe are central to building robust and manageable storage
//! systems."
//!
//! [`run_wind`] simulates an array serving a continuous write stream over
//! a long horizon while its pairs live through injected fault timelines.
//! In *managed* mode the array runs the full fail-stutter pipeline:
//!
//! 1. every pair's rate is sampled each epoch: an EWMA detector judges it
//!    against the pair's spec (a rate of zero is an outright failure), the
//!    shared [`Registry`] exports persistent changes, and a
//!    [`FailurePredictor`] watches for the wear-out signature;
//! 2. work is distributed pull-style in proportion to current rates;
//! 3. a wear-out prediction or an absolute replica failure triggers a
//!    rebuild onto a hot spare, which consumes part of the pair's
//!    bandwidth while it runs;
//! 4. when the rebuild completes, the spare replaces the sick replica and
//!    the pair returns to nominal performance; if the pair absolutely
//!    fails first, the rebuild has lost its source and the pair is lost.
//!
//! In *unmanaged* (fail-stop) mode, work is split evenly, nothing is
//! monitored, and a failed pair's share of the stream simply stalls until
//! the operator intervenes (never, within the run).

use simcore::stats::Series;
use simcore::time::{SimDuration, SimTime};
use stutter::detect::EwmaDetector;
use stutter::fault::{ComponentId, HealthState};
use stutter::predict::{FailurePredictor, PredictorConfig};
use stutter::registry::Registry;
use stutter::spec::PerfSpec;

use crate::vdisk::MirrorPair;

/// Management mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Management {
    /// Fail-stop thinking: static shares, no monitoring, no spares.
    Unmanaged,
    /// The full fail-stutter pipeline with `hot_spares` spares.
    Managed {
        /// Hot spares available for rebuilds.
        hot_spares: u32,
    },
}

/// Offered write load, bytes/second (under the nominal aggregate of the
/// arrays the experiments run).
pub const OFFERED_LOAD: f64 = 25e6;
/// Simulated duration of a run.
const DURATION: SimDuration = SimDuration::from_secs(7_200);
/// Control/sampling epoch.
pub const EPOCH: SimDuration = SimDuration::from_secs(1);
/// Data a rebuild must copy, bytes.
const REBUILD_BYTES: f64 = 2e9;
/// Fraction of a pair's bandwidth a running rebuild consumes.
const REBUILD_SHARE: f64 = 0.3;

/// A notable event during the run.
#[derive(Clone, Debug, PartialEq)]
pub enum WindEvent {
    /// The registry exported a state change for a pair.
    Exported {
        /// When.
        at: SimTime,
        /// Which pair.
        pair: usize,
        /// Human-readable state.
        state: String,
    },
    /// A failure prediction fired and a rebuild began.
    RebuildStarted {
        /// When.
        at: SimTime,
        /// Which pair.
        pair: usize,
    },
    /// A rebuild finished; the pair is whole and nominal again.
    RebuildCompleted {
        /// When.
        at: SimTime,
        /// Which pair.
        pair: usize,
    },
    /// A pair absolutely failed with no spare available, or before its
    /// rebuild completed.
    PairLost {
        /// When.
        at: SimTime,
        /// Which pair.
        pair: usize,
    },
}

/// The outcome of a WiND run.
#[derive(Clone, Debug)]
pub struct WindOutcome {
    /// Delivered throughput over time (bytes/second, sampled per epoch).
    pub throughput: Series,
    /// Mean delivered throughput.
    pub mean_throughput: f64,
    /// Fraction of epochs in which the full offered load was served.
    pub availability: f64,
    /// Event log.
    pub events: Vec<WindEvent>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum PairState {
    /// Serving under its injected timeline.
    Stuttering,
    /// Rebuilding onto a spare until the given time.
    Rebuilding(SimTime),
    /// Replaced by a spare: healthy and nominal from here on.
    Replaced,
    /// Absolutely failed, with no spare or before its rebuild completed:
    /// contributes nothing.
    Lost,
}

/// Runs the array against its fault timelines. Each pair is judged
/// against its own nominal rate, the slower of its two disks' nominals
/// (paper §3.1: each component has its own performance specification).
pub fn run_wind(pairs: &[MirrorPair], management: Management) -> WindOutcome {
    assert!(!pairs.is_empty(), "need at least one pair");
    let n = pairs.len();
    let dt = EPOCH.as_secs_f64();
    let managed = matches!(management, Management::Managed { .. });
    let mut spares_left = match management {
        Management::Managed { hot_spares } => hot_spares,
        Management::Unmanaged => 0,
    };

    let nominal: Vec<f64> = pairs.iter().map(|p| p.a.nominal.min(p.b.nominal)).collect();
    let mut detectors: Vec<EwmaDetector> =
        nominal.iter().map(|&r| EwmaDetector::new(PerfSpec::constant(r), 0.3)).collect();
    let predictor = FailurePredictor::new(PredictorConfig {
        window: SimDuration::from_secs(300),
        min_samples: 8,
        level_threshold: 0.9,
        slope_threshold: 0.05,
        consecutive_below: 4,
    });
    let mut predictors = vec![predictor; n];
    let mut registry = Registry::new(SimDuration::from_secs(60));
    let mut state = vec![PairState::Stuttering; n];
    let mut events = Vec::new();
    let mut throughput = Series::new();
    let mut delivered_total = 0.0;
    let mut ok_epochs = 0u64;
    let mut epochs = 0u64;

    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + DURATION;
    // Backlog carried when the array cannot keep up: one shared queue
    // under management (work is relocatable), one queue per pair under
    // static striping (each pair's blocks are pinned to it).
    let mut backlog = 0.0f64;
    let mut pinned_backlog = vec![0.0f64; n];

    while t < end {
        t += EPOCH;
        epochs += 1;

        // Current effective rate of each pair.
        let mut rates = vec![0.0f64; n];
        for i in 0..n {
            rates[i] = match state[i] {
                PairState::Replaced => nominal[i],
                PairState::Lost => 0.0,
                PairState::Rebuilding(done) => {
                    if pairs[i].failed_at(t.min(done)) {
                        // Both replicas died before the spare held a full
                        // copy: the rebuild has no source and the data is gone.
                        state[i] = PairState::Lost;
                        events.push(WindEvent::PairLost { at: t, pair: i });
                        0.0
                    } else if t >= done {
                        state[i] = PairState::Replaced;
                        events.push(WindEvent::RebuildCompleted { at: t, pair: i });
                        nominal[i]
                    } else {
                        pairs[i].write_rate_at(t) * (1.0 - REBUILD_SHARE)
                    }
                }
                PairState::Stuttering => pairs[i].write_rate_at(t),
            };
        }

        // Management: observe, export, predict, react.
        if managed {
            for i in 0..n {
                if !matches!(state[i], PairState::Stuttering) {
                    continue;
                }
                // A pair delivering nothing has failed outright; the
                // registry exports that at once, bypassing persistence.
                let verdict = if rates[i] <= 0.0 {
                    HealthState::Failed
                } else {
                    detectors[i].observe(rates[i])
                };
                if let Some(notice) = registry.report(ComponentId(i as u32), t, verdict) {
                    events.push(WindEvent::Exported {
                        at: t,
                        pair: i,
                        state: notice.state.to_string(),
                    });
                }
                let prediction = predictors[i].observe(t, rates[i] / nominal[i]);
                let must_rebuild = prediction.is_some() || pairs[i].failed_at(t);
                if must_rebuild {
                    if spares_left > 0 {
                        spares_left -= 1;
                        // Rebuild reads from the pair's survivor at
                        // `REBUILD_SHARE` of whatever it still delivers.
                        let read_rate = (rates[i] * REBUILD_SHARE).max(0.05 * nominal[i]);
                        let rebuild_time = SimDuration::from_secs_f64(REBUILD_BYTES / read_rate);
                        state[i] = PairState::Rebuilding(t + rebuild_time);
                        events.push(WindEvent::RebuildStarted { at: t, pair: i });
                    } else if pairs[i].failed_at(t) {
                        state[i] = PairState::Lost;
                        events.push(WindEvent::PairLost { at: t, pair: i });
                    }
                }
            }
        } else {
            for i in 0..n {
                if matches!(state[i], PairState::Stuttering) && pairs[i].failed_at(t) {
                    state[i] = PairState::Lost;
                    events.push(WindEvent::PairLost { at: t, pair: i });
                }
            }
        }

        // Serve this epoch's offered load plus backlog.
        let served;
        let behind;
        if managed {
            // Pull-style: the aggregate of current rates is usable and
            // backed-up work can go anywhere.
            let incoming = OFFERED_LOAD * dt + backlog;
            let capacity: f64 = rates.iter().sum::<f64>() * dt;
            served = incoming.min(capacity);
            backlog = (incoming - served).max(0.0);
            behind = backlog > 1e-6;
        } else {
            // Static equal shares: each pair is offered 1/n of the load
            // and its unserved share stays pinned to it.
            let share = OFFERED_LOAD * dt / n as f64;
            let mut s = 0.0;
            for i in 0..n {
                pinned_backlog[i] += share;
                let done = pinned_backlog[i].min(rates[i] * dt);
                pinned_backlog[i] -= done;
                s += done;
            }
            served = s;
            behind = pinned_backlog.iter().any(|&b| b > 1e-6);
        }
        delivered_total += served;
        if !behind {
            ok_epochs += 1;
        }
        throughput.push(t, served / dt);
    }

    WindOutcome {
        mean_throughput: delivered_total / DURATION.as_secs_f64(),
        availability: ok_epochs as f64 / epochs as f64,
        throughput,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vdisk::VDisk;
    use simcore::rng::Stream;
    use stutter::injector::{DurationDist, Injector, SlowdownProfile};

    const MB: f64 = 1e6;

    fn healthy_pairs(n: usize) -> Vec<MirrorPair> {
        (0..n).map(|_| MirrorPair::healthy(10.0 * MB)).collect()
    }

    fn wearing_pair(seed: u64) -> MirrorPair {
        wearing_pair_at(seed, 10.0 * MB)
    }

    /// Both replicas wear out together: linearly from 900 s to 20% of
    /// `nominal` at 2,100 s, then fail-stop at 2,700 s.
    fn wearing_pair_at(seed: u64, nominal: f64) -> MirrorPair {
        let inj = Injector::Wearout {
            onset: SimTime::from_secs(900),
            ramp: SimDuration::from_secs(1_200),
            floor: 0.2,
            fail_after: Some(SimDuration::from_secs(600)),
        };
        let p = inj.timeline(SimDuration::from_secs(7_200), &mut Stream::from_seed(seed));
        MirrorPair::new(
            VDisk::new(nominal).with_profile(p.clone()),
            VDisk::new(nominal).with_profile(p),
        )
    }

    fn rebuild_start(out: &WindOutcome, pair: usize) -> Option<SimTime> {
        out.events.iter().find_map(|e| match e {
            WindEvent::RebuildStarted { at, pair: p } if *p == pair => Some(*at),
            _ => None,
        })
    }

    #[test]
    fn healthy_array_serves_everything_either_way() {
        let pairs = healthy_pairs(4);
        for mode in [Management::Unmanaged, Management::Managed { hot_spares: 1 }] {
            let out = run_wind(&pairs, mode);
            assert!((out.availability - 1.0).abs() < 1e-9, "{mode:?}: {}", out.availability);
            assert!((out.mean_throughput / OFFERED_LOAD - 1.0).abs() < 0.01);
        }
    }

    #[test]
    fn healthy_array_stays_quiet() {
        // Every pair at its spec: no export, no prediction, no rebuild.
        let out = run_wind(&healthy_pairs(4), Management::Managed { hot_spares: 1 });
        assert!(out.events.is_empty(), "{:?}", out.events);
    }

    #[test]
    fn a_fail_stop_is_exported_at_once() {
        // Pair 2 fail-stops at 100 s without warning. Its zero rate is
        // judged failed and exported in that epoch, although the
        // registry's persistence window is 60 s.
        let dead = SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(100));
        let mut pairs = healthy_pairs(4);
        pairs[2] = MirrorPair::new(
            VDisk::new(10.0 * MB).with_profile(dead.clone()),
            VDisk::new(10.0 * MB).with_profile(dead),
        );
        let out = run_wind(&pairs, Management::Managed { hot_spares: 0 });
        let at = SimTime::from_secs(100);
        let failed = WindEvent::Exported { at, pair: 2, state: "failed".to_string() };
        assert_eq!(out.events, vec![failed, WindEvent::PairLost { at, pair: 2 }]);
    }

    #[test]
    fn managed_array_survives_wearout_with_a_spare() {
        let mut pairs = healthy_pairs(4);
        pairs[1] = wearing_pair(3);
        let managed = run_wind(&pairs, Management::Managed { hot_spares: 1 });
        let unmanaged = run_wind(&pairs, Management::Unmanaged);
        assert!(managed.availability > 0.9, "managed availability {}", managed.availability);
        assert!(
            unmanaged.availability < managed.availability,
            "unmanaged {} vs managed {}",
            unmanaged.availability,
            managed.availability
        );
        // The pipeline actually ran: prediction → rebuild → completion.
        assert!(managed
            .events
            .iter()
            .any(|e| matches!(e, WindEvent::RebuildStarted { pair: 1, .. })));
        assert!(managed
            .events
            .iter()
            .any(|e| matches!(e, WindEvent::RebuildCompleted { pair: 1, .. })));
        // No pair was lost under management.
        assert!(!managed.events.iter().any(|e| matches!(e, WindEvent::PairLost { .. })));
    }

    #[test]
    fn a_pair_that_dies_mid_rebuild_is_lost() {
        // The prediction fires early in the ramp, but the pair fail-stops
        // at 1,200 s, long before a rebuild at the degraded read rate can
        // copy everything onto the spare.
        let inj = Injector::Wearout {
            onset: SimTime::from_secs(900),
            ramp: SimDuration::from_secs(300),
            floor: 0.2,
            fail_after: Some(SimDuration::ZERO),
        };
        let p = inj.timeline(SimDuration::from_secs(7_200), &mut Stream::from_seed(3));
        let dies = p.fail_at().expect("wears out");
        let mut pairs = healthy_pairs(4);
        pairs[1] = MirrorPair::new(
            VDisk::new(10.0 * MB).with_profile(p.clone()),
            VDisk::new(10.0 * MB).with_profile(p),
        );
        let out = run_wind(&pairs, Management::Managed { hot_spares: 1 });
        let started = rebuild_start(&out, 1).expect("the prediction starts a rebuild");
        assert!(started < dies);
        let lost = out
            .events
            .iter()
            .find_map(|e| match e {
                WindEvent::PairLost { at, pair: 1 } => Some(*at),
                _ => None,
            })
            .expect("the pair's data dies with it");
        assert!(lost >= dies && lost <= dies + EPOCH, "lost at {lost}");
        assert!(!out.events.iter().any(|e| matches!(e, WindEvent::RebuildCompleted { .. })));
    }

    #[test]
    fn unmanaged_array_loses_the_failed_pair() {
        let mut pairs = healthy_pairs(4);
        pairs[2] = wearing_pair(5);
        let out = run_wind(&pairs, Management::Unmanaged);
        assert!(out.events.iter().any(|e| matches!(e, WindEvent::PairLost { pair: 2, .. })));
        // A quarter of the offered load backs up forever after the loss:
        // availability collapses.
        assert!(out.availability < 0.8, "{}", out.availability);
    }

    #[test]
    fn managed_array_absorbs_transient_stutter_without_spares() {
        let inj = Injector::Episodes {
            interarrival: DurationDist::Exp { mean: SimDuration::from_secs(120) },
            duration: DurationDist::Exp { mean: SimDuration::from_secs(20) },
            factor: 0.3,
        };
        let mut pairs = healthy_pairs(4);
        let p = inj.timeline(SimDuration::from_secs(7_200), &mut Stream::from_seed(9));
        pairs[0] = MirrorPair::new(VDisk::new(10.0 * MB).with_profile(p), VDisk::new(10.0 * MB));
        let out = run_wind(&pairs, Management::Managed { hot_spares: 0 });
        // Aggregate capacity dips to 33 MB/s during episodes — still above
        // the 25 MB/s offered load, so pull-style distribution rides
        // through with barely any backlog.
        assert!(out.availability > 0.95, "{}", out.availability);
        // And no rebuild was wasted on a transient.
        assert!(!out.events.iter().any(|e| matches!(e, WindEvent::RebuildStarted { .. })));
    }

    #[test]
    fn stutter_makes_the_unmanaged_array_miss_load() {
        // A persistent 30% pair under static shares cannot carry its 1/n.
        let slow = Injector::StaticSlowdown { factor: 0.3 }
            .timeline(SimDuration::from_secs(7_200), &mut Stream::from_seed(11));
        let mut pairs = healthy_pairs(4);
        pairs[3] = MirrorPair::new(VDisk::new(10.0 * MB).with_profile(slow), VDisk::new(10.0 * MB));
        let unmanaged = run_wind(&pairs, Management::Unmanaged);
        let managed = run_wind(&pairs, Management::Managed { hot_spares: 0 });
        // Unmanaged: pair 3 serves 3 of its 6.25 MB/s share; the array
        // delivers 3 × 6.25 + 3 = 21.75 of 25 MB/s. Managed: aggregate
        // 33 > 25 — fine.
        assert!(unmanaged.mean_throughput < 23e6, "{}", unmanaged.mean_throughput);
        assert!(managed.mean_throughput > 24.5e6, "{}", managed.mean_throughput);
        assert!(unmanaged.availability < 0.1);
        assert!(managed.availability > 0.95);
    }

    #[test]
    fn stutter_followed_by_failure_with_one_spare_each() {
        let mut pairs = healthy_pairs(6);
        pairs[0] = wearing_pair(21);
        pairs[4] = wearing_pair(22);
        let out = run_wind(&pairs, Management::Managed { hot_spares: 2 });
        let rebuilds =
            out.events.iter().filter(|e| matches!(e, WindEvent::RebuildStarted { .. })).count();
        assert_eq!(rebuilds, 2);
        assert!(out.availability > 0.9, "{}", out.availability);
    }

    #[test]
    fn prediction_is_relative_to_each_pairs_own_rate() {
        // The same wear-out ramp, in an array of 10 MB/s pairs and in one
        // of 20 MB/s pairs: each pair is judged against its own nominal
        // rate, so the prediction fires at the same point on the ramp.
        for nominal in [10.0 * MB, 20.0 * MB] {
            let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(nominal)).collect();
            pairs[1] = wearing_pair_at(3, nominal);
            let out = run_wind(&pairs, Management::Managed { hot_spares: 1 });
            assert_eq!(
                rebuild_start(&out, 1),
                Some(SimTime::from_secs(1_053)),
                "{} MB/s pairs",
                nominal / MB
            );
        }
    }
}
