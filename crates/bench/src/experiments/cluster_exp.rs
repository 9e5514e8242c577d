//! Experiments E14 and E16: cluster-application sensitivity to one
//! perturbed node (§2.2.1 background operations, §2.2.2 CPU hogs).

use cluster::prelude::*;
use simcore::prelude::*;
use stutter::prelude::*;

use crate::report::{pct, ratio, Finding, Report, Table};

/// E14 — untimely garbage collection in a replicated hash table (Gribble
/// et al.'s DDS).
pub fn e14_gc_mirror() -> Report {
    let mut report = Report::new();
    let healthy: Vec<Component> = (0..8).map(|_| Component::new(2_000.0)).collect();
    let clean = run_dds(&healthy);

    let gc = Injector::Blackouts {
        interarrival: DurationDist::Exp { mean: SimDuration::from_secs(10) },
        duration: DurationDist::Const(SimDuration::from_secs(2)),
    }
    .timeline(SimDuration::from_secs(120), &mut Stream::from_seed(43));
    let mut bricks: Vec<Component> = (0..8).map(|_| Component::new(2_000.0)).collect();
    bricks[2] = Component::new(2_000.0).with_profile(gc);
    let gced = run_dds(&bricks);

    let mut table = Table::new(
        "Replicated hash table: one brick with 2 s GC pauses every ~10 s",
        &["configuration", "mean acked throughput", "min sampled", "peak backlog (ops)"],
    );
    table.row(vec![
        "all healthy".into(),
        format!("{:.0} op/s", clean.mean_throughput),
        format!("{:.0} op/s", clean.throughput.min()),
        format!("{:.0}", clean.peak_backlog),
    ]);
    table.row(vec![
        "one GC'ing brick".into(),
        format!("{:.0} op/s", gced.mean_throughput),
        format!("{:.0} op/s", gced.throughput.min()),
        format!("{:.0}", gced.peak_backlog),
    ]);
    report.tables.push(table);

    report.findings.push(Finding::new(
        "GC'ing node falls behind its mirror",
        "untimely garbage collection causes one node to fall behind its mirror; one machine \
         over-saturates and thus is the bottleneck",
        format!(
            "backlog {} -> {}, min sampled rate {:.0} op/s",
            clean.peak_backlog,
            gced.peak_backlog,
            gced.throughput.min()
        ),
        gced.peak_backlog > 20.0 * clean.peak_backlog.max(1.0)
            && gced.throughput.min() < 0.85 * clean.mean_throughput,
    ));
    report
}

/// E16 — one CPU-hogged node halves global sort performance (NOW-Sort).
pub fn e16_cpu_hog() -> Report {
    let mut report = Report::new();
    let job = SortJob::minute_sort(8_000_000);
    let clean: Vec<Node> = (0..8).map(|_| Node::new(1e6, 10e6)).collect();
    let clean_out = run_sort(&clean, job, Placement::Static, SimTime::ZERO);

    let hog = Injector::StaticSlowdown { factor: 0.5 }
        .timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(47));
    let mut hogged = clean.clone();
    hogged[3] = Node::new(1e6, 10e6).with_cpu_profile(hog.clone()).with_disk_profile(hog);
    let static_out = run_sort(&hogged, job, Placement::Static, SimTime::ZERO);
    let adaptive_out = run_sort(&hogged, job, Placement::Adaptive, SimTime::ZERO);

    let mut table = Table::new(
        "Parallel sort of 8 M records over 8 nodes, one node 50% hogged",
        &["configuration", "read", "sort", "write", "total", "slowdown"],
    );
    for (name, out) in [
        ("dedicated", &clean_out),
        ("hogged, static placement", &static_out),
        ("hogged, adaptive placement", &adaptive_out),
    ] {
        table.row(vec![
            name.into(),
            format!("{:.1} s", out.read_phase.as_secs_f64()),
            format!("{:.1} s", out.sort_phase.as_secs_f64()),
            format!("{:.1} s", out.write_phase.as_secs_f64()),
            format!("{:.1} s", out.total.as_secs_f64()),
            ratio(out.total.as_secs_f64() / clean_out.total.as_secs_f64()),
        ]);
    }
    report.tables.push(table);

    let slowdown = static_out.total.as_secs_f64() / clean_out.total.as_secs_f64();
    report.findings.push(Finding::new(
        "global slowdown from one loaded node",
        "a node with excess CPU load reduces global sorting performance by a factor of two",
        ratio(slowdown),
        (1.8..2.2).contains(&slowdown),
    ));
    let recovered = adaptive_out.total.as_secs_f64() / clean_out.total.as_secs_f64();
    report.findings.push(Finding::new(
        "adaptive placement absorbs the hog",
        "performance-fault tolerant mechanisms handle imbalances (Section 3.3)",
        format!(
            "adaptive total {} of dedicated ({} of work on hogged node)",
            ratio(recovered),
            pct(adaptive_out.per_node[3] as f64 / (job.records / 8) as f64),
        ),
        recovered < 1.35,
    ));
    report
}

/// E30 — a partitioned network service (the intro's search-engine
/// motivation): full-harvest fan-out vs the harvest/yield trade-off.
pub fn e30_harvest_yield() -> Report {
    use cluster::service::{run_service, Partition, ResponsePolicy};
    use simcore::stats::Histogram;

    let mut report = Report::new();
    let gc = Injector::Episodes {
        interarrival: DurationDist::Exp { mean: SimDuration::from_secs(10) },
        duration: DurationDist::Const(SimDuration::from_secs(2)),
        factor: 0.02,
    };
    let build = |seed: u64| -> Vec<Partition> {
        let mut parts: Vec<Partition> = (0..8).map(|_| Partition::new(100.0)).collect();
        parts[3] = Partition::new(100.0)
            .with_profile(gc.timeline(SimDuration::from_secs(600), &mut Stream::from_seed(seed)));
        parts
    };
    let acceptable = SimDuration::from_millis(200);
    let mut table = Table::new(
        "8-partition search service, one partition with 2 s episodes at 2% speed",
        &["policy", "p50 (ms)", "p99 (ms)", "yield", "mean harvest"],
    );
    let mut results: Vec<(f64, f64, Histogram)> = Vec::new();
    for (name, policy) in [
        ("full harvest (fail-stop)", ResponsePolicy::Full),
        (
            "partial harvest @ 100 ms",
            ResponsePolicy::PartialHarvest { deadline: SimDuration::from_millis(100) },
        ),
    ] {
        let mut parts = build(71);
        let out = run_service(&mut parts, 5_000, SimDuration::from_millis(20), policy, acceptable);
        table.row(vec![
            name.into(),
            format!("{:.0}", out.latency_ms.quantile(0.5)),
            format!("{:.0}", out.latency_ms.quantile(0.99)),
            pct(out.yield_fraction),
            pct(out.mean_harvest),
        ]);
        results.push((out.yield_fraction, out.mean_harvest, out.latency_ms));
    }
    report.tables.push(table);
    report.findings.push(Finding::new(
        "one slow partition gates the naive service",
        "parallel-performance assumptions are common in parallel databases, search engines, \
         and parallel applications (Section 1)",
        format!(
            "full-harvest p99 {:.0} ms vs partial-harvest p99 {:.0} ms",
            results[0].2.quantile(0.99),
            results[1].2.quantile(0.99)
        ),
        results[0].2.quantile(0.99) > 4.0 * results[1].2.quantile(0.99),
    ));
    report.findings.push(Finding::new(
        "harvest/yield is the fail-stutter answer",
        "graceful degradation under performance faults (Sections 3.3 and 4)",
        format!(
            "partial harvest keeps yield {} at harvest {}",
            pct(results[1].0),
            pct(results[1].1)
        ),
        results[1].0 > 0.99 && results[1].1 > 0.9 && results[0].0 < 0.9,
    ));
    report
}
