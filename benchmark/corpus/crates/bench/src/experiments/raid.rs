//! Experiments E01–E03, E22, E23: the §3.2 RAID-10 scenarios and the
//! §3.3 availability / manageability claims.

use simcore::prelude::*;
use stutter::prelude::*;

use raidsim::prelude::*;

use crate::report::{mbs, pct, ratio, Finding, Report, Table};

const MB: f64 = 1e6;
const HOUR: SimDuration = SimDuration::from_secs(3600);

/// 4 GB in 64 KB blocks.
fn workload() -> Workload {
    Workload::new(65_536, 65_536)
}

/// N pairs at 10 MB/s with pair 0's first replica slowed to `b_frac`.
fn array_with_slow_pair(n: usize, b_frac: f64, seed: u64) -> Raid10 {
    let mut pairs: Vec<MirrorPair> = (0..n).map(|_| MirrorPair::healthy(10.0 * MB)).collect();
    if b_frac < 1.0 {
        let slow = Injector::StaticSlowdown { factor: b_frac }
            .timeline(HOUR, &mut Stream::from_seed(seed));
        pairs[0] = MirrorPair::new(VDisk::new(10.0 * MB).with_profile(slow), VDisk::new(10.0 * MB));
    }
    Raid10::new(pairs, HOUR)
}

/// E01 — scenario 1: equal static striping delivers `N·b`.
pub fn e01_raid_failstop() -> Report {
    let mut report = Report::new();
    let mut table = Table::new(
        "RAID-10 write throughput, fail-stop design (one pair at b, rest at B = 10 MB/s)",
        &["N", "b/B", "simulated", "analytic N*b", "rel err"],
    );
    let mut worst_err = 0.0f64;
    for &n in &[4usize, 8, 16] {
        for &frac in &[0.1, 0.25, 0.5, 0.75, 1.0] {
            let array = array_with_slow_pair(n, frac, 1);
            let out = array.write_static(workload(), SimTime::ZERO).expect("alive");
            let analytic = scenario1_throughput(n, 10.0 * MB, 10.0 * MB * frac);
            let err = (out.throughput / analytic - 1.0).abs();
            worst_err = worst_err.max(err);
            table.row(vec![
                n.to_string(),
                format!("{frac:.2}"),
                mbs(out.throughput),
                mbs(analytic),
                pct(err),
            ]);
        }
    }
    report.tables.push(table);
    report.findings.push(Finding::new(
        "simulation vs closed form N*b",
        "throughput is reduced to N*b MB/s (Section 3.2)",
        format!("max relative error {}", pct(worst_err)),
        worst_err < 0.02,
    ));
    report
}

/// E02 — scenario 2: proportional static striping delivers `(N−1)·B + b`
/// but collapses under drift after gauging.
pub fn e02_raid_static() -> Report {
    let mut report = Report::new();
    let mut table = Table::new(
        "RAID-10 write throughput, static-proportional design",
        &["N", "b/B", "simulated", "analytic (N-1)B+b", "rel err"],
    );
    let mut worst_err = 0.0f64;
    for &n in &[4usize, 8, 16] {
        for &frac in &[0.1, 0.25, 0.5, 0.75, 1.0] {
            let array = array_with_slow_pair(n, frac, 1);
            let out =
                array.write_proportional(workload(), SimTime::ZERO, SimTime::ZERO).expect("alive");
            let analytic = scenario2_throughput(n, 10.0 * MB, 10.0 * MB * frac);
            let err = (out.throughput / analytic - 1.0).abs();
            worst_err = worst_err.max(err);
            table.row(vec![
                n.to_string(),
                format!("{frac:.2}"),
                mbs(out.throughput),
                mbs(analytic),
                pct(err),
            ]);
        }
    }
    report.tables.push(table);
    report.findings.push(Finding::new(
        "simulation vs closed form (N-1)*B + b",
        "write throughput increases to (N-1)*B + b MB/s (Section 3.2)",
        format!("max relative error {}", pct(worst_err)),
        worst_err < 0.02,
    ));

    // Drift: rates equal at gauge time, pair 2 collapses right after.
    let drift =
        SlowdownProfile::from_breakpoints(vec![(SimTime::ZERO, 1.0), (SimTime::from_secs(1), 0.2)]);
    let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10.0 * MB)).collect();
    pairs[2] = MirrorPair::new(VDisk::new(10.0 * MB).with_profile(drift), VDisk::new(10.0 * MB));
    let array = Raid10::new(pairs, HOUR);
    let out = array.write_proportional(workload(), SimTime::ZERO, SimTime::ZERO).expect("alive");
    let mut drift_table = Table::new(
        "Drift after gauging (pair drops to 20% one second into the write)",
        &["design", "throughput"],
    );
    drift_table.row(vec!["static proportional".into(), mbs(out.throughput)]);
    report.tables.push(drift_table);
    report.findings.push(Finding::new(
        "drift re-collapses scenario 2",
        "if any disk does not perform as expected over time, performance again tracks the slow disk",
        mbs(out.throughput),
        out.throughput < 12.0 * MB,
    ));
    report
}

/// E03 — scenario 3: adaptive striping delivers the available bandwidth
/// under arbitrary time-varying rates.
pub fn e03_raid_adaptive() -> Report {
    let mut report = Report::new();
    let mut table = Table::new(
        "Adaptive RAID-10 vs available bandwidth under erratic per-pair rates",
        &["seed", "available (time-avg)", "adaptive", "fraction"],
    );
    let mut worst_frac = f64::INFINITY;
    for seed in 0..5u64 {
        let stutter = Injector::Stutter {
            hold: DurationDist::Exp { mean: SimDuration::from_secs(20) },
            factor: FactorDist::Uniform { lo: 0.2, hi: 1.0 },
        };
        let rng = Stream::from_seed(seed);
        let pairs: Vec<MirrorPair> = (0..4)
            .map(|i| {
                let p = stutter.timeline(HOUR, &mut rng.derive(&format!("pair-{i}")));
                MirrorPair::new(VDisk::new(10.0 * MB).with_profile(p), VDisk::new(10.0 * MB))
            })
            .collect();
        let array = Raid10::new(pairs, HOUR);
        let out = array.write_adaptive(workload(), SimTime::ZERO, 64).expect("alive");
        // Available bandwidth: the aggregate pair rate averaged over the
        // write's actual span.
        let span = out.elapsed;
        let available: f64 = array
            .pairs()
            .iter()
            .map(|p| {
                p.write_rate_profile(HOUR).integrate(SimTime::ZERO, SimTime::ZERO + span)
                    / span.as_secs_f64()
            })
            .sum();
        let frac = out.throughput / available;
        worst_frac = worst_frac.min(frac);
        table.row(vec![seed.to_string(), mbs(available), mbs(out.throughput), pct(frac)]);
    }
    report.tables.push(table);
    report.findings.push(Finding::new(
        "adaptive throughput vs available bandwidth",
        "deliver the full available bandwidth under a wide range of performance faults (Section 3.2)",
        format!("worst fraction {}", pct(worst_frac)),
        worst_frac > 0.9,
    ));
    report
}

/// E31 — the §3.2 scenarios on a mechanical substrate: seeks, zones and
/// queueing included, same conclusions.
pub fn e31_raid_on_metal() -> Report {
    use blockdev::disk::Disk;
    use blockdev::geometry::Geometry;

    let mut report = Report::new();
    let w = Workload::new(8_192, 65_536); // 512 MB
    let build = || {
        let pairs: Vec<MechPair> = (0..4)
            .map(|i| {
                // Rooted on the experiment's own literal seed, not the
                // loop index: `from_seed(i)` would silently re-key every
                // pair's disks if the loop were ever reordered or grown.
                let root = Stream::from_seed(0xE31).derive_index(i as u64);
                let mut a = Disk::new(Geometry::barracuda_7200(), root.derive("raid-exp.a"));
                let b = Disk::new(Geometry::barracuda_7200(), root.derive("raid-exp.b"));
                if i == 0 {
                    let p = Injector::StaticSlowdown { factor: 0.5 }.timeline(
                        SimDuration::from_secs(100_000),
                        &mut root.derive("raid-exp.inj"),
                    );
                    a = a.with_profile(p);
                }
                MechPair::new(a, b)
            })
            .collect();
        MechRaid10::new(pairs)
    };
    let s1 = build().write_static(w, SimTime::ZERO, 64).expect("alive");
    let s3 = build().write_adaptive(w, SimTime::ZERO, 64).expect("alive");
    let mut table = Table::new(
        "512 MB over 4 mechanical pairs (7200-RPM model), one replica at 50%",
        &["design", "throughput", "slow pair's blocks"],
    );
    table.row(vec!["equal static".into(), mbs(s1.throughput), s1.per_pair_blocks[0].to_string()]);
    table.row(vec!["adaptive".into(), mbs(s3.throughput), s3.per_pair_blocks[0].to_string()]);
    report.tables.push(table);
    let gain = s3.throughput / s1.throughput;
    report.findings.push(Finding::new(
        "the fluid model's conclusion survives the mechanical substrate",
        "striping and other RAID techniques perform well if every disk delivers identical \
         performance; if a single disk is consistently lower, the entire storage system \
         tracks the slow disk (Section 1)",
        format!(
            "adaptive {} over static on metal; slow pair wrote {} vs {} blocks",
            ratio(gain),
            s3.per_pair_blocks[0],
            s3.per_pair_blocks[1]
        ),
        gain > 1.4 && s3.per_pair_blocks[0] < s3.per_pair_blocks[1],
    ));
    report
}

/// E22 — §3.3 availability: fraction of offered writes finished within an
/// acceptable deadline, fail-stop vs fail-stutter design.
pub fn e22_availability() -> Report {
    use adapt::prelude::AvailabilityMeter;

    let mut report = Report::new();
    // Offered load: a sequence of 256 MB writes; deadline sized for an
    // array delivering at least 70% of nominal aggregate (40 MB/s → 9.1 s).
    let w = Workload::new(4_096, 65_536);
    let floor_bytes_per_sec = 0.7 * 40.0 * MB;
    let deadline = SimDuration::from_secs_f64(w.total_bytes() as f64 / floor_bytes_per_sec);
    let mut table = Table::new(
        "Gray & Reuter availability under one stuttering pair (deadline per 256 MB write)",
        &["b/B", "static avail", "adaptive avail"],
    );
    let mut static_min: f64 = 1.0;
    let mut adaptive_min: f64 = 1.0;
    for &frac in &[1.0, 0.75, 0.5, 0.25, 0.1] {
        let mut meter_static = AvailabilityMeter::new(deadline);
        let mut meter_adaptive = AvailabilityMeter::new(deadline);
        for seed in 0..8u64 {
            let array = array_with_slow_pair(4, frac, seed + 1);
            match array.write_static(w, SimTime::ZERO) {
                Ok(out) => meter_static.record(out.elapsed),
                Err(_) => meter_static.record_dropped(),
            }
            match array.write_adaptive(w, SimTime::ZERO, 64) {
                Ok(out) => meter_adaptive.record(out.elapsed),
                Err(_) => meter_adaptive.record_dropped(),
            }
        }
        if frac < 0.7 {
            static_min = static_min.min(meter_static.availability());
            adaptive_min = adaptive_min.min(meter_adaptive.availability());
        }
        table.row(vec![
            format!("{frac:.2}"),
            pct(meter_static.availability()),
            pct(meter_adaptive.availability()),
        ]);
    }
    report.tables.push(table);
    report.findings.push(Finding::new(
        "availability under performance faults",
        "a fail-stop-only system delivers poor availability under even a single performance failure; \
         a fail-stutter system delivers consistent performance (Section 3.3)",
        format!("static min {} vs adaptive min {}", pct(static_min), pct(adaptive_min)),
        static_min == 0.0 && adaptive_min == 1.0,
    ));
    report
}

/// E23 — §3.3 manageability: incremental growth with faster components.
pub fn e23_incremental_growth() -> Report {
    let mut report = Report::new();
    // Four old 10 MB/s pairs plus two new 20 MB/s pairs.
    let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10.0 * MB)).collect();
    pairs.push(MirrorPair::healthy(20.0 * MB));
    pairs.push(MirrorPair::healthy(20.0 * MB));
    let array = Raid10::new(pairs, HOUR);
    let w = workload();
    let s1 = array.write_static(w, SimTime::ZERO).expect("alive");
    let s3 = array.write_adaptive(w, SimTime::ZERO, 64).expect("alive");

    let mut table = Table::new(
        "Incremental growth: 4 old pairs (10 MB/s) + 2 new pairs (20 MB/s)",
        &["design", "throughput", "of raw 80 MB/s"],
    );
    table.row(vec!["equal static".into(), mbs(s1.throughput), pct(s1.throughput / (80.0 * MB))]);
    table.row(vec!["adaptive".into(), mbs(s3.throughput), pct(s3.throughput / (80.0 * MB))]);
    report.tables.push(table);

    report.findings.push(Finding::new(
        "static design wastes the new disks",
        "older components simply appear to be performance-faulty versions of the new ones (Section 3.3)",
        format!(
            "static {} vs adaptive {} ({} gain)",
            mbs(s1.throughput),
            mbs(s3.throughput),
            ratio(s3.throughput / s1.throughput)
        ),
        s1.throughput < 0.8 * s3.throughput && s3.throughput > 0.95 * 80.0 * MB,
    ));
    report
}
