//! Tolerance-banded oracles around the closed-form model.
//!
//! The campaign harness (`fs-bench`) replays every §3.2 scenario under every
//! injector from the §2 catalog and needs machine-checkable verdicts, not
//! plots. This module turns the [`crate::model`] predictions and the paper's
//! qualitative claims ("adaptive approaches full available bandwidth", "a
//! performance fault never speeds an array up") into [`Band`] checks that
//! either pass or produce a structured [`Violation`].
//!
//! Soundness notes, encoded in which checks apply when:
//!
//! * The closed forms assume a *constant* slow-pair rate `b`; they are only
//!   asserted when the injected profile is constant (see
//!   `profile_is_constant` in the `fs-bench` campaign harness). Episodic faults get the
//!   weaker metamorphic checks instead.
//! * Scenario 2 ≥ scenario 1 is a theorem only when the gauge observes the
//!   long-run rate; with an instantaneous gauge and a drifting fault the
//!   proportional controller can be *mis*-calibrated, so the ordering
//!   oracle asserts only `s3 ≳ s2` and `s3 ≳ s1`.

use crate::controller::{Workload, WriteOutcome};
use crate::model;

pub use stutter::oracle::Violation;

/// An inclusive acceptance interval for a measured scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Smallest acceptable value.
    pub lo: f64,
    /// Largest acceptable value.
    pub hi: f64,
}

impl Band {
    /// A symmetric relative band: `center · (1 ± rel)`.
    pub fn around(center: f64, rel: f64) -> Band {
        Band { lo: center * (1.0 - rel), hi: center * (1.0 + rel) }
    }

    /// A one-sided lower bound.
    pub fn at_least(lo: f64) -> Band {
        Band { lo, hi: f64::INFINITY }
    }

    /// A one-sided upper bound.
    pub fn at_most(hi: f64) -> Band {
        Band { lo: f64::NEG_INFINITY, hi }
    }

    /// Whether `x` falls inside the band (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }
}

/// Checks a measured value against a band under a named oracle.
fn check_band(oracle: &'static str, measured: f64, band: Band) -> Result<(), Violation> {
    if band.contains(measured) {
        Ok(())
    } else {
        Err(Violation {
            oracle,
            detail: format!("measured {measured:.6e} outside [{:.6e}, {:.6e}]", band.lo, band.hi),
        })
    }
}

/// Every block handed to the controller must land on exactly one pair.
pub fn check_conservation(out: &WriteOutcome, w: Workload) -> Result<(), Violation> {
    let assigned: u64 = out.per_pair_blocks.iter().sum();
    if assigned == w.blocks {
        Ok(())
    } else {
        Err(Violation {
            oracle: "raid/conservation",
            detail: format!("assigned {assigned} blocks, workload has {}", w.blocks),
        })
    }
}

/// The adaptive block map, when present, must tile `[0, blocks)` exactly.
pub fn check_block_map_partition(out: &WriteOutcome, w: Workload) -> Result<(), Violation> {
    let Some(map) = &out.block_map else {
        return Ok(());
    };
    let mut entries: Vec<(u64, u64)> = map.iter().map(|e| (e.start, e.len)).collect();
    entries.sort_unstable();
    let mut next = 0u64;
    for (start, len) in entries {
        if start != next || len == 0 {
            return Err(Violation {
                oracle: "raid/block-map",
                detail: format!("map entry starts at {start}, expected {next} (len {len})"),
            });
        }
        next = start + len;
    }
    if next != w.blocks {
        return Err(Violation {
            oracle: "raid/block-map",
            detail: format!("map covers {next} blocks, workload has {}", w.blocks),
        });
    }
    Ok(())
}

/// §3.2 scenario 1 closed form: equal-static striping delivers `N·b`.
///
/// Valid only when the slow pair runs at a constant rate `b`.
pub fn check_scenario1(
    out: &WriteOutcome,
    n: usize,
    big_b: f64,
    b: f64,
    rel_tol: f64,
) -> Result<(), Violation> {
    let predicted = model::scenario1_throughput(n, big_b, b);
    check_band("raid/scenario1-closed-form", out.throughput, Band::around(predicted, rel_tol))
}

/// §3.2 scenario 2 closed form: proportional-static delivers `(N−1)·B + b`.
///
/// Valid only when the slow pair runs at a constant rate `b` *and* the gauge
/// therefore observes the true long-run rate.
pub fn check_scenario2(
    out: &WriteOutcome,
    n: usize,
    big_b: f64,
    b: f64,
    rel_tol: f64,
) -> Result<(), Violation> {
    let predicted = model::scenario2_throughput(n, big_b, b);
    check_band("raid/scenario2-closed-form", out.throughput, Band::around(predicted, rel_tol))
}

/// §3.2 scenario 3: adaptive striping approaches full available bandwidth,
/// i.e. the scenario-2 optimum, from below (chunk granularity costs a tail)
/// and never exceeds it by more than tolerance.
pub fn check_scenario3(
    out: &WriteOutcome,
    n: usize,
    big_b: f64,
    b: f64,
    rel_tol: f64,
) -> Result<(), Violation> {
    let available = model::scenario2_throughput(n, big_b, b);
    check_band(
        "raid/scenario3-closed-form",
        out.throughput,
        Band { lo: available * (1.0 - rel_tol), hi: available * (1.0 + rel_tol) },
    )
}

/// Metamorphic: no injected performance fault may push any controller past
/// the all-healthy array's `N·B` (a stutter only removes bandwidth).
pub fn check_fault_never_helps(
    out: &WriteOutcome,
    n: usize,
    big_b: f64,
    rel_tol: f64,
) -> Result<(), Violation> {
    let healthy = big_b * n as f64;
    check_band("raid/fault-never-helps", out.throughput, Band::at_most(healthy * (1.0 + rel_tol)))
}

/// Metamorphic ordering (§3.2): more adaptivity never materially hurts —
/// `s3 ≥ s2 · (1−tol)` and `s3 ≥ s1 · (1−tol)`.
pub fn check_ordering(s1: f64, s2: f64, s3: f64, rel_tol: f64) -> Result<(), Violation> {
    if s3 < s2 * (1.0 - rel_tol) {
        return Err(Violation {
            oracle: "raid/ordering-s3-vs-s2",
            detail: format!("adaptive {s3:.6e} below proportional {s2:.6e} beyond tolerance"),
        });
    }
    if s3 < s1 * (1.0 - rel_tol) {
        return Err(Violation {
            oracle: "raid/ordering-s3-vs-s1",
            detail: format!("adaptive {s3:.6e} below equal-static {s1:.6e} beyond tolerance"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Raid10;
    use crate::vdisk::{MirrorPair, VDisk};
    use simcore::rng::Stream;
    use simcore::time::{SimDuration, SimTime};
    use stutter::injector::Injector;

    fn slow_array(factor: f64) -> Raid10 {
        let horizon = SimDuration::from_secs(100_000);
        let profile =
            Injector::StaticSlowdown { factor }.timeline(horizon, &mut Stream::from_seed(7));
        let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10e6)).collect();
        pairs[0] = MirrorPair::new(VDisk::new(10e6).with_profile(profile), VDisk::new(10e6));
        Raid10::new(pairs, horizon)
    }

    #[test]
    fn closed_forms_accept_the_simulated_controllers() {
        let array = slow_array(0.5);
        let w = Workload::new(16_384, 65_536);
        let s1 = array.write_static(w, SimTime::ZERO).unwrap();
        let s2 = array.write_proportional(w, SimTime::ZERO, SimTime::ZERO).unwrap();
        let s3 = array.write_adaptive(w, SimTime::ZERO, 64).unwrap();
        check_scenario1(&s1, 4, 10e6, 5e6, 0.02).unwrap();
        check_scenario2(&s2, 4, 10e6, 5e6, 0.02).unwrap();
        check_scenario3(&s3, 4, 10e6, 5e6, 0.05).unwrap();
        // Chunk granularity leaves adaptive ~1% under the proportional optimum.
        check_ordering(s1.throughput, s2.throughput, s3.throughput, 0.03).unwrap();
        check_conservation(&s3, w).unwrap();
        check_block_map_partition(&s3, w).unwrap();
        for out in [&s1, &s2, &s3] {
            check_fault_never_helps(out, 4, 10e6, 0.001).unwrap();
        }
    }

    #[test]
    fn perturbed_measurement_is_caught() {
        let array = slow_array(0.5);
        let w = Workload::new(16_384, 65_536);
        let mut s1 = array.write_static(w, SimTime::ZERO).unwrap();
        // A controller delivering 10% more than N·b is outside any honest band.
        s1.throughput *= 1.10;
        let v = check_scenario1(&s1, 4, 10e6, 5e6, 0.02).unwrap_err();
        assert_eq!(v.oracle, "raid/scenario1-closed-form");
    }

    #[test]
    fn band_edges_are_inclusive() {
        let b = Band::around(100.0, 0.1);
        assert!(b.contains(90.0));
        assert!(b.contains(110.0));
        assert!(!b.contains(89.999));
        assert!(Band::at_least(5.0).contains(5.0));
        assert!(Band::at_most(5.0).contains(5.0));
    }
}
