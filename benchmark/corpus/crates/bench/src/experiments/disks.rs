//! Experiments E04–E08, E13: the §2.1.2 / §2.2.1 storage phenomena.

use blockdev::prelude::*;
use simcore::prelude::*;
use stutter::prelude::*;

use crate::report::{mbs, pct, ratio, Finding, Report, Table};

const MB: u64 = 1 << 20;

fn hawk(seed: u64) -> Disk {
    Disk::new(Geometry::hawk_5400(), Stream::from_seed(seed).derive("disks-exp.disk"))
}

/// E04 — bad-block remapping: the 5.0-vs-5.5 MB/s Hawk.
pub fn e04_badblock() -> Report {
    let mut report = Report::new();
    let mut table = Table::new(
        "Sequential read bandwidth vs grown defects (Seagate Hawk class, 64 MB stream)",
        &["disk", "defects", "bandwidth", "vs clean"],
    );
    // The paper's farm: most disks deliver 5.5 MB/s; one, with three times
    // the block faults, delivers 5.0 MB/s.
    let baseline_defects = 250u64;
    let faulty_defects = 750u64;
    let mut clean_bw = 0.0;
    let mut dirty_bw = 0.0;
    for (name, defects) in [("typical", baseline_defects), ("remap-heavy", faulty_defects)] {
        let mut disk = hawk(7).with_random_defects(defects);
        let (bw, _) =
            measure_sequential_read(&mut disk, SimTime::ZERO, 256 * MB, MB).expect("healthy");
        if defects == baseline_defects {
            clean_bw = bw;
        } else {
            dirty_bw = bw;
        }
        table.row(vec![name.into(), defects.to_string(), mbs(bw), ratio(bw / clean_bw.max(1.0))]);
    }
    report.tables.push(table);
    let deficit = dirty_bw / clean_bw;
    report.findings.push(Finding::new(
        "bandwidth deficit of the remap-heavy disk",
        "5.0 MB/s vs 5.5 MB/s with three times the block faults (~91%)",
        pct(deficit),
        (0.85..0.97).contains(&deficit),
    ));
    report
}

/// E05 — SCSI error census: 49% / 87% and ~2 per day.
pub fn e05_scsi_errors() -> Report {
    let mut report = Report::new();
    let rng = Stream::from_seed(11);
    let disks =
        (0..8).map(|i| Disk::new(Geometry::hawk_5400(), rng.derive(&format!("d{i}")))).collect();
    let days = 180u64;
    let chain = ScsiChain::new(
        disks,
        ErrorProcess::default(),
        SimDuration::from_secs(days * 86_400),
        &mut rng.derive("disks-exp.errors"),
    );
    let census = chain.full_horizon_census();
    let mut table = Table::new(
        format!("Error census over {days} days (Talagala & Patterson farm model)"),
        &["category", "count", "share"],
    );
    let total = census.total();
    for (name, count) in [
        ("SCSI timeout", census.scsi_timeout),
        ("SCSI parity", census.scsi_parity),
        ("network", census.network),
        ("other", census.other),
    ] {
        table.row(vec![name.into(), count.to_string(), pct(count as f64 / total as f64)]);
    }
    report.tables.push(table);

    let f = census.scsi_fraction();
    let f_ex = census.scsi_fraction_excluding_network();
    let per_day = (census.scsi_timeout + census.scsi_parity) as f64 / days as f64;
    report.findings.push(Finding::new(
        "SCSI timeouts+parity share of all errors",
        "49% of all errors",
        pct(f),
        (f - 0.49).abs() < 0.06,
    ));
    report.findings.push(Finding::new(
        "share excluding network errors",
        "87% of error instances",
        pct(f_ex),
        (f_ex - 0.87).abs() < 0.06,
    ));
    report.findings.push(Finding::new(
        "timeout/parity rate",
        "roughly two times per day on average",
        format!("{per_day:.2}/day"),
        (per_day - 2.0).abs() < 0.5,
    ));
    report
}

/// E06 — thermal recalibration: random short off-line periods.
pub fn e06_thermal_recal() -> Report {
    let mut report = Report::new();
    let recal = Injector::Blackouts {
        interarrival: DurationDist::Exp { mean: SimDuration::from_secs(30) },
        duration: DurationDist::Uniform {
            lo: SimDuration::from_millis(500),
            hi: SimDuration::from_millis(1500),
        },
    };
    let profile = recal.timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(13));
    let mut disk = hawk(13).with_profile(profile);

    // A video-server-like stream: one 256 KB read every 100 ms, deadline
    // one frame interval.
    let mut lat = Histogram::new();
    let mut misses = 0u64;
    let deadline = SimDuration::from_millis(100);
    let mut t = SimTime::ZERO;
    let reads = 3_000u64;
    for i in 0..reads {
        let lba = (i * 512) % 3_000_000;
        let g = disk.read(t, lba, 512).expect("no absolute failure");
        let latency = g.latency_from(t);
        lat.record(latency.as_secs_f64() * 1e3);
        if latency > deadline {
            misses += 1;
        }
        t = t.max(g.finish) + SimDuration::from_millis(100);
    }
    let mut table = Table::new(
        "Streaming read latency under thermal recalibrations (ms)",
        &["p50", "p99", "max", "deadline misses"],
    );
    table.row(vec![
        format!("{:.1}", lat.quantile(0.5)),
        format!("{:.1}", lat.quantile(0.99)),
        format!("{:.1}", lat.max()),
        format!("{misses} of {reads}"),
    ]);
    report.tables.push(table);
    report.findings.push(Finding::new(
        "latency spikes from off-line periods",
        "disks go off-line at random intervals for short periods (Bolosky et al.)",
        format!("p99/p50 = {}", ratio(lat.quantile(0.99) / lat.quantile(0.5).max(0.1))),
        misses > 0 && lat.max() > 400.0,
    ));
    report
}

/// E07 — multi-zone geometry: outer/inner bandwidth ≈ 2×.
pub fn e07_zones() -> Report {
    let mut report = Report::new();
    let g = Geometry::hawk_5400();
    let mut table = Table::new(
        "Sequential bandwidth by zone (Van Meter's multi-zone observation)",
        &["zone", "rate"],
    );
    for z in 0..g.zones {
        table.row(vec![z.to_string(), mbs(g.zone_rate(z))]);
    }
    report.tables.push(table);
    // Measure end-to-end through the full disk model, not just the rates.
    let mut outer = hawk(17);
    let (bw_outer, _) =
        measure_sequential_read(&mut outer, SimTime::ZERO, 32 * MB, MB).expect("ok");
    let mut inner = hawk(17);
    let inner_start = g.blocks - 32 * MB / 512;
    let mut t = SimTime::ZERO;
    let mut lba = inner_start;
    while lba < g.blocks {
        let n = (MB / 512).min(g.blocks - lba);
        let gr = inner.read(t, lba, n).expect("ok");
        t = gr.finish;
        lba += n;
    }
    let bw_inner = (32 * MB) as f64 / (t - SimTime::ZERO).as_secs_f64();
    let r = bw_outer / bw_inner;
    report.findings.push(Finding::new(
        "outer/inner bandwidth ratio",
        "performance across zones differing by up to a factor of two",
        format!("{} ({} vs {})", ratio(r), mbs(bw_outer), mbs(bw_inner)),
        (1.7..2.3).contains(&r),
    ));
    report
}

/// E08 — the Vesta variance: near-peak cluster with a 15–20% tail.
pub fn e08_vesta_variance() -> Report {
    let mut report = Report::new();
    // Repeated measurements of the "same" benchmark: most runs are clean,
    // an unlucky minority runs against heavy interference (the unloaded
    // system was only *typically* unloaded).
    let interference = Injector::Stutter {
        hold: DurationDist::Exp { mean: SimDuration::from_secs(30) },
        factor: FactorDist::TwoPoint { p: 0.85, a: 1.0, b: 0.17 },
    };
    let rng = Stream::from_seed(19);
    let mut results: Vec<f64> = Vec::new();
    for run in 0..40 {
        let profile =
            interference.timeline(SimDuration::from_secs(600), &mut rng.derive(&format!("r{run}")));
        let mut disk = hawk(19).with_profile(profile);
        let (bw, _) = measure_sequential_read(&mut disk, SimTime::ZERO, 16 * MB, MB).expect("ok");
        results.push(bw);
    }
    let peak = results.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0);
    let near_peak = results.iter().filter(|&&b| b > 0.9 * peak).count();
    let low_tail = results.iter().copied().min_by(f64::total_cmp).unwrap_or(f64::INFINITY);

    let mut table = Table::new(
        "40 repeated runs of the same benchmark (Vesta-style variance)",
        &["peak", "runs within 10% of peak", "slowest run", "slowest vs peak"],
    );
    table.row(vec![mbs(peak), format!("{near_peak}/40"), mbs(low_tail), pct(low_tail / peak)]);
    report.tables.push(table);
    report.findings.push(Finding::new(
        "bimodal run distribution",
        "a cluster of measurements near peak, others spread down to 15-20% of peak",
        format!("{near_peak}/40 near peak; tail at {}", pct(low_tail / peak)),
        near_peak >= 20 && low_tail / peak < 0.45,
    ));
    report
}

/// E13 — file-system aging: fresh vs aged sequential read.
pub fn e13_fs_aging() -> Report {
    let mut report = Report::new();
    let g = Geometry::hawk_5400();
    let mut table = Table::new(
        "Sequential file read, fresh vs aged file system (30 MB file)",
        &["layout", "extents", "bandwidth"],
    );

    let mut fresh_fs = FileSystem::new(400_000, Stream::from_seed(23).derive("disks-exp.fs"));
    let mut fresh_disk = Disk::new(g.clone(), Stream::from_seed(23).derive("disks-exp.d"));
    let ff = fresh_fs.create_file(60_000).expect("space");
    let (bw_fresh, _) = fresh_fs.read_file(&mut fresh_disk, ff, SimTime::ZERO).expect("ok");
    table.row(vec!["fresh".into(), fresh_fs.file(ff).extent_count().to_string(), mbs(bw_fresh)]);

    let mut aged_fs = FileSystem::new(400_000, Stream::from_seed(23).derive("disks-exp.fs"));
    let mut aged_disk = Disk::new(g, Stream::from_seed(23).derive("disks-exp.d"));
    aged_fs.age(300);
    let af = aged_fs.create_file(60_000).expect("space");
    let (bw_aged, _) = aged_fs.read_file(&mut aged_disk, af, SimTime::ZERO).expect("ok");
    table.row(vec!["aged".into(), aged_fs.file(af).extent_count().to_string(), mbs(bw_aged)]);
    report.tables.push(table);

    let r = bw_fresh / bw_aged;
    report.findings.push(Finding::new(
        "fresh/aged bandwidth ratio",
        "sequential file read performance across aged file systems varies by up to a factor of two",
        ratio(r),
        (1.5..4.0).contains(&r),
    ));
    report
}
