//! Experiment E34: scenario 3bis — the §3.2 adaptive controller planned
//! from the gossiped performance plane instead of omniscient observation.
//!
//! Sweeps the plane's gossip interval against the consumer's staleness
//! bound and compares three controllers on the same drifting array:
//!
//! - **planned** — `write_estimated` fed only by a consumer node's
//!   [`perfplane`] view (what a real machine could know),
//! - **omniscient** — `write_adaptive`, the scenario-3 upper bound,
//! - **blind** — `write_static`, the scenario-1 fail-stop design.

use perfplane::prelude::*;
use raidsim::prelude::*;
use simcore::prelude::*;

use crate::report::{mbs, pct, ratio, Finding, Report, Table};

const MB: f64 = 1e6;
/// Plane nodes == mirrored pairs.
const N: usize = 4;
/// Nominal per-pair bandwidth `B`.
const NOMINAL: f64 = 10.0 * MB;
/// Pair 0's post-drift multiplier (`b = DRIFT_TO · B`).
const DRIFT_TO: f64 = 0.35;

/// Pair 0 drops to 35% of nominal 30 s in, long before the write starts.
fn drift() -> SlowdownProfile {
    SlowdownProfile::from_breakpoints(vec![
        (SimTime::ZERO, 1.0),
        (SimTime::from_secs(30), DRIFT_TO),
    ])
}

/// Runs the plane at one (gossip interval, staleness bound) point and
/// returns the planned write's throughput.
fn planned_throughput(gossip_s: u64, stale_s: u64, array: &Raid10, w: Workload) -> f64 {
    let cfg = PlaneConfig {
        gossip_interval: SimDuration::from_secs(gossip_s),
        stale_after: SimDuration::from_secs(stale_s),
        horizon: SimDuration::from_secs(180),
    };
    let mut spec = PlaneSpec::homogeneous(cfg, N, NOMINAL);
    spec.components[0].profile = drift();
    let run = run_plane(&spec, &mut Stream::from_seed(34));

    let consumer = &run.views[N - 1];
    let write_at = SimTime::from_secs(120);
    let mut est =
        |i: usize, at: SimTime| consumer.estimated_rate(ComponentId(i as u32), at, NOMINAL);
    array.write_estimated(w, write_at, 64, &mut est).expect("no pair died").throughput
}

/// E34 — gossip-planned striping vs the omniscient and blind designs.
pub fn e34_perfplane() -> Report {
    let mut report = Report::new();

    let mut pairs: Vec<MirrorPair> = (0..N).map(|_| MirrorPair::healthy(NOMINAL)).collect();
    pairs[0] = MirrorPair::new(VDisk::new(NOMINAL).with_profile(drift()), VDisk::new(NOMINAL));
    let array = Raid10::new(pairs, SimDuration::from_secs(100_000));
    let w = Workload::new(16_384, 65_536); // 1 GB
    let write_at = SimTime::from_secs(120);

    let omniscient = array.write_adaptive(w, write_at, 64).expect("alive").throughput;
    let blind = array.write_static(w, write_at).expect("alive").throughput;
    let n_times_b = scenario1_throughput(N, NOMINAL, NOMINAL * DRIFT_TO);

    let mut table = Table::new(
        "Planned (scenario 3bis) throughput vs gossip interval × staleness bound \
         (omniscient scenario 3: "
            .to_string()
            + &mbs(omniscient)
            + ", blind scenario 1: "
            + &mbs(blind)
            + ")",
        &["gossip interval", "stale after", "planned", "of omniscient"],
    );
    let mut best = 0.0f64;
    let mut at_1s_60s = 0.0f64;
    let mut at_30s_60s = 0.0f64;
    for &gossip_s in &[1u64, 2, 5, 10, 30] {
        for &stale_s in &[15u64, 60, 240] {
            let planned = planned_throughput(gossip_s, stale_s, &array, w);
            best = best.max(planned);
            if stale_s == 60 {
                if gossip_s == 1 {
                    at_1s_60s = planned;
                }
                if gossip_s == 30 {
                    at_30s_60s = planned;
                }
            }
            table.row(vec![
                format!("{gossip_s} s"),
                format!("{stale_s} s"),
                mbs(planned),
                pct(planned / omniscient),
            ]);
        }
    }
    report.tables.push(table);

    report.findings.push(Finding::new(
        "plane-fed controller vs omniscient scenario 3",
        "performance information is exported and utilized; the adaptive design delivers the \
         available bandwidth (Sections 3.1-3.2)",
        format!("planned {} = {} of omniscient", mbs(at_1s_60s), pct(at_1s_60s / omniscient)),
        at_1s_60s >= 0.9 * omniscient,
    ));
    report.findings.push(Finding::new(
        "plane disabled collapses to N*b",
        "throughput is reduced to N*b MB/s (Section 3.2)",
        format!("blind {} vs closed form {}", mbs(blind), mbs(n_times_b)),
        (blind / n_times_b - 1.0).abs() < 0.1,
    ));
    report.findings.push(Finding::new(
        "the plane pays for its carrier",
        "a fail-stutter system delivers consistent, higher performance (Section 3.3)",
        format!("best planned / blind = {}", ratio(best / blind)),
        best / blind >= 1.5,
    ));
    report.findings.push(Finding::new(
        "fresher gossip never hurts",
        "staleness of exported state bounds the quality of adaptation (Section 3.1)",
        format!("planned at 1 s interval {} vs at 30 s {}", mbs(at_1s_60s), mbs(at_30s_60s)),
        at_1s_60s >= at_30s_60s * 0.98,
    ));
    report
}
