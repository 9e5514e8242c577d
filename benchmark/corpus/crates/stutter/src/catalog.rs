//! The §2 survey as a ready-made injector catalog.
//!
//! Every phenomenon the paper documents, pre-calibrated to the cited
//! magnitude, as a named constructor. Experiments, examples and downstream
//! users get the paper's fault universe off the shelf:
//!
//! ```
//! use simcore::prelude::*;
//! use stutter::catalog;
//!
//! let inj = catalog::thermal_recalibration();
//! let profile = inj.timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(1));
//! assert!(profile.mean_multiplier(SimDuration::from_secs(3600)) > 0.9);
//! ```

use simcore::time::{SimDuration, SimTime};

use crate::injector::{DurationDist, FactorDist, Injector};

/// §2.1.1 — a fault-masked processor: a permanent fraction of nominal
/// performance (the Viking study measured spreads up to 40%).
pub fn fault_masked_cpu() -> Injector {
    Injector::StaticSlowdown { factor: 0.7 }
}

/// §2.1.2 — a remap-heavy disk: the 5.0-vs-5.5 MB/s Hawk, ~9% tax.
pub fn remap_heavy_disk() -> Injector {
    Injector::StaticSlowdown { factor: 0.91 }
}

/// §2.1.2 — thermal recalibration: short random off-line periods
/// (Bolosky et al.'s video server).
pub fn thermal_recalibration() -> Injector {
    Injector::Blackouts {
        interarrival: DurationDist::Exp { mean: SimDuration::from_secs(60) },
        duration: DurationDist::Uniform {
            lo: SimDuration::from_millis(500),
            hi: SimDuration::from_millis(1500),
        },
    }
}

/// §2.1.2 — SCSI bus resets: ~2 per day, 2 s stalls (Talagala &
/// Patterson).
pub fn scsi_bus_resets() -> Injector {
    Injector::Blackouts {
        interarrival: DurationDist::Exp { mean: SimDuration::from_secs(43_200) },
        duration: DurationDist::Const(SimDuration::from_secs(2)),
    }
}

/// §2.1.2 — Vesta-style run-to-run variance: mostly near peak, a tail at
/// 15–20% of peak.
pub fn vesta_variance() -> Injector {
    Injector::Stutter {
        hold: DurationDist::Exp { mean: SimDuration::from_secs(30) },
        factor: FactorDist::TwoPoint { p: 0.85, a: 1.0, b: 0.17 },
    }
}

/// §2.1.3 — deadlock-recovery halts: two-second full stops at Myrinet-like
/// frequency under pathological pacing.
pub fn deadlock_recovery_halts() -> Injector {
    Injector::Blackouts {
        interarrival: DurationDist::Exp { mean: SimDuration::from_secs(120) },
        duration: DurationDist::Const(SimDuration::from_secs(2)),
    }
}

/// §2.2.1 — untimely garbage collection: ~2 s pauses every ~10 s under
/// allocation pressure (Gribble et al.'s DDS).
pub fn gc_pauses() -> Injector {
    Injector::Blackouts {
        interarrival: DurationDist::Exp { mean: SimDuration::from_secs(10) },
        duration: DurationDist::Const(SimDuration::from_secs(2)),
    }
}

/// §2.2.1 — an aged file system: roughly half of fresh sequential
/// bandwidth.
pub fn aged_file_system() -> Injector {
    Injector::StaticSlowdown { factor: 0.5 }
}

/// §2.2.2 — a CPU hog sharing the node: 50% during episodes (the NOW-Sort
/// disturbance).
pub fn cpu_hog_episodes() -> Injector {
    Injector::Episodes {
        interarrival: DurationDist::Exp { mean: SimDuration::from_secs(120) },
        duration: DurationDist::Exp { mean: SimDuration::from_secs(60) },
        factor: 0.5,
    }
}

/// §2.2.2 — a memory hog: near-total collapse while the hog's resident set
/// evicts everyone (Brown & Mowry's up-to-40×).
pub fn memory_hog_episodes() -> Injector {
    Injector::Episodes {
        interarrival: DurationDist::Exp { mean: SimDuration::from_secs(300) },
        duration: DurationDist::Exp { mean: SimDuration::from_secs(30) },
        factor: 0.025,
    }
}

/// §3.3 — wear-out: healthy for `onset`, an erratic decline over `ramp`,
/// then fail-stop — the early-warning signature.
pub fn wearout(onset: SimTime, ramp: SimDuration) -> Injector {
    Injector::Wearout { onset, ramp, floor: 0.25, fail_after: Some(SimDuration::from_secs(600)) }
}

/// The whole §2 catalog with labels, for tours and stress tests.
pub fn all() -> Vec<(&'static str, Injector)> {
    vec![
        ("fault-masked CPU (2.1.1)", fault_masked_cpu()),
        ("remap-heavy disk (2.1.2)", remap_heavy_disk()),
        ("thermal recalibration (2.1.2)", thermal_recalibration()),
        ("SCSI bus resets (2.1.2)", scsi_bus_resets()),
        ("Vesta variance (2.1.2)", vesta_variance()),
        ("deadlock recovery halts (2.1.3)", deadlock_recovery_halts()),
        ("GC pauses (2.2.1)", gc_pauses()),
        ("aged file system (2.2.1)", aged_file_system()),
        ("CPU hog episodes (2.2.2)", cpu_hog_episodes()),
        ("memory hog episodes (2.2.2)", memory_hog_episodes()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Stream;

    const HOUR: SimDuration = SimDuration::from_secs(3600);

    #[test]
    fn every_entry_generates_a_valid_timeline() {
        let rng = Stream::from_seed(1);
        for (name, inj) in all() {
            let p = inj.timeline(HOUR, &mut rng.derive(name));
            let mean = p.mean_multiplier(HOUR);
            assert!((0.0..=1.0).contains(&mean), "{name}: mean {mean}");
            assert!(p.fail_at().is_none(), "{name}: catalog entries do not fail-stop");
        }
    }

    #[test]
    fn calibrations_land_in_their_bands() {
        let rng = Stream::from_seed(2);
        let mean = |inj: Injector, label: &str| {
            inj.timeline(HOUR, &mut rng.derive(label)).mean_multiplier(HOUR)
        };
        // Static taxes are exact.
        assert!((mean(remap_heavy_disk(), "rh") - 0.91).abs() < 1e-9);
        assert!((mean(fault_masked_cpu(), "fm") - 0.7).abs() < 1e-9);
        // Recalibration costs a couple of percent.
        let recal = mean(thermal_recalibration(), "tr");
        assert!((0.92..1.0).contains(&recal), "{recal}");
        // GC pauses cost ~1/6 of the time.
        let gc = mean(gc_pauses(), "gc");
        assert!((0.70..0.92).contains(&gc), "{gc}");
        // SCSI resets are negligible over an hour but present over months.
        let resets = mean(scsi_bus_resets(), "br");
        assert!(resets > 0.99, "{resets}");
    }

    #[test]
    fn wearout_entry_fails() {
        let inj = wearout(SimTime::from_secs(600), SimDuration::from_secs(600));
        let p = inj.timeline(HOUR, &mut Stream::from_seed(3));
        assert_eq!(p.fail_at(), Some(SimTime::from_secs(1800)));
    }

    #[test]
    fn labels_are_unique() {
        let entries = all();
        let mut names: Vec<&str> = entries.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries.len());
    }
}
