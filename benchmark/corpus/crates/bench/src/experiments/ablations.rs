//! Experiments E32–E33: ablations of the design choices the paper flags.
//!
//! §3.2: "we note that this approach increases the amount of bookkeeping
//! ... However, by increasing complexity, we create a system that is more
//! robust." — E32 sweeps the adaptive controller's chunk size to expose
//! the bookkeeping/robustness trade-off directly.
//!
//! §3.1: "erratic performance may occur quite frequently, and thus
//! distributing that information may be overly expensive." — E33 sweeps
//! the registry's persistence window to expose the notification-volume /
//! reaction-latency trade-off.

use raidsim::prelude::*;
use simcore::prelude::*;
use stutter::prelude::*;

use crate::report::{Finding, Report, Table};

const MB: f64 = 1e6;
const HOUR: SimDuration = SimDuration::from_secs(3600);

/// E32 — chunk size: bookkeeping volume vs delivered bandwidth.
pub fn e32_chunk_ablation() -> Report {
    let mut report = Report::new();
    // Erratic pairs, as in E03.
    let stutter = Injector::Stutter {
        hold: DurationDist::Exp { mean: SimDuration::from_secs(20) },
        factor: FactorDist::Uniform { lo: 0.2, hi: 1.0 },
    };
    let rng = Stream::from_seed(83);
    let pairs: Vec<MirrorPair> = (0..4)
        .map(|i| {
            let p = stutter.timeline(HOUR, &mut rng.derive(&format!("pair-{i}")));
            MirrorPair::new(VDisk::new(10.0 * MB).with_profile(p), VDisk::new(10.0 * MB))
        })
        .collect();
    let array = Raid10::new(pairs, HOUR);
    let w = Workload::new(65_536, 65_536);

    let mut table = Table::new(
        "Adaptive striping vs chunk size (4 GB over 4 erratic pairs)",
        &["chunk (blocks)", "throughput", "block-map entries"],
    );
    let mut results: Vec<(u64, f64, usize)> = Vec::new();
    for &chunk in &[4u64, 16, 64, 256, 1_024, 8_192] {
        let out = array.write_adaptive(w, SimTime::ZERO, chunk).expect("alive");
        let entries = out.block_map.as_ref().expect("adaptive maps").len();
        table.row(vec![chunk.to_string(), crate::report::mbs(out.throughput), entries.to_string()]);
        results.push((chunk, out.throughput, entries));
    }
    report.tables.push(table);

    let small = results.first().expect("non-empty");
    let large = results.last().expect("non-empty");
    let entries_monotone = results.windows(2).all(|w| w[1].2 <= w[0].2);
    report.findings.push(Finding::new(
        "bookkeeping shrinks as chunks grow; robustness shrinks with it",
        "this approach increases the amount of bookkeeping ... by increasing complexity, we \
         create a system that is more robust (Section 3.2)",
        format!(
            "chunk 4: {} with {} map entries; chunk 8192: {} with {} entries",
            crate::report::mbs(small.1),
            small.2,
            crate::report::mbs(large.1),
            large.2
        ),
        entries_monotone && small.1 > large.1 && small.2 > 50 * large.2,
    ));
    report
}

/// E33 — registry persistence window: notification volume vs reaction
/// latency.
pub fn e33_persistence_ablation() -> Report {
    let mut report = Report::new();
    // One persistently slow component among transient stutterers.
    let transient = Injector::Stutter {
        hold: DurationDist::Exp { mean: SimDuration::from_secs(15) },
        factor: FactorDist::TwoPoint { p: 0.7, a: 1.0, b: 0.5 },
    };
    let rng = Stream::from_seed(89);
    let mut profiles: Vec<SlowdownProfile> =
        (0..7).map(|i| transient.timeline(HOUR, &mut rng.derive(&format!("t{i}")))).collect();
    // The persistent fault begins at t = 600 s.
    profiles.push(SlowdownProfile::from_breakpoints(vec![
        (SimTime::ZERO, 1.0),
        (SimTime::from_secs(600), 0.3),
    ]));

    let mut table = Table::new(
        "Registry persistence window: exports vs time-to-export of a real persistent fault",
        &["window (s)", "total exports", "export latency of the persistent fault"],
    );
    let spec = PerfSpec::constant(1.0);
    let mut export_counts = Vec::new();
    let mut latencies = Vec::new();
    for &window_s in &[0u64, 10, 30, 60, 300] {
        let mut registry = Registry::new(SimDuration::from_secs(window_s));
        let mut detectors: Vec<EwmaDetector> =
            (0..profiles.len()).map(|_| EwmaDetector::new(spec.clone(), 0.4)).collect();
        let mut persistent_export: Option<SimTime> = None;
        for s in 0..3_600u64 {
            let now = SimTime::from_secs(s);
            for (i, p) in profiles.iter().enumerate() {
                let verdict = detectors[i].observe(p.multiplier_at(now));
                if let Some(n) = registry.report(ComponentId(i as u32), now, verdict) {
                    if i == 7
                        && persistent_export.is_none()
                        && !matches!(n.state, HealthState::Healthy)
                    {
                        persistent_export = Some(now);
                    }
                }
            }
        }
        let exports = registry.notifications().len();
        let latency = persistent_export
            .map(|t| (t - SimTime::from_secs(600)).as_secs_f64())
            .unwrap_or(f64::INFINITY);
        table.row(vec![window_s.to_string(), exports.to_string(), format!("{latency:.0} s")]);
        export_counts.push(exports);
        latencies.push(latency);
    }
    report.tables.push(table);

    let volume_drops = export_counts.first().expect("non-empty")
        > &(10 * export_counts.last().expect("non-empty")).max(1);
    let latency_grows = latencies.windows(2).all(|w| w[1] >= w[0] - 1.0);
    report.findings.push(Finding::new(
        "persistence filters notification storms at a bounded latency cost",
        "erratic performance may occur quite frequently, and thus distributing that \
         information may be overly expensive (Section 3.1)",
        format!(
            "window 0 s: {} exports; window 300 s: {} exports with the persistent fault \
             exported {:.0} s after onset",
            export_counts[0],
            export_counts.last().expect("non-empty"),
            latencies.last().expect("non-empty")
        ),
        volume_drops && latency_grows && latencies.last().expect("non-empty").is_finite(),
    ));
    report
}
