//! Traced replay of one campaign cell.
//!
//! [`replay`] makes the same sequence of public calls that
//! `fs_bench::campaign::run_scenario` makes, in the same order and with
//! the same derived streams, and wraps each call into a layer in a span.
//! It rebuilds the cell's metrics as it goes, so the caller can check
//! them against the untraced `ScenarioResult` bit for bit: if the two
//! differ, the spans describe a different program.

use adapt::oracle as qoracle;
use adapt::prelude::*;
use fs_bench::campaign::scenario::Metric;
use fs_bench::campaign::{CampaignConfig, Kind, Scenario};
use metastable::oracle as moracle;
use metastable::policy::{BreakerConfig, Mitigation, ShedConfig};
use metastable::server::trigger_window;
use perfplane::oracle as poracle;
use perfplane::prelude::*;
use raidsim::oracle as roracle;
use raidsim::prelude::*;
use simcore::prelude::*;
use simcore::resource::RateProfile;
use stutter::oracle as soracle;
use stutter::prelude::*;
use stutter::spec::PerfSpec;

use crate::trace::Tracer;

pub type Metrics = Vec<(&'static str, Metric)>;

/// Simulated work counted during a replay. These depend only on the
/// inputs, so a change that only speeds up the simulator leaves them
/// unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Fresh + retry + open requests issued by metastable runs.
    pub meta_attempts: u64,
    /// Requests served live by metastable runs.
    pub meta_served_live: u64,
    /// Engine ticks over all metastable runs.
    pub meta_ticks: u64,
    /// Gossip messages delivered over all `run_plane` calls.
    pub plane_delivered: u64,
    /// Gossip merges over all `run_plane` calls.
    pub plane_merges: u64,
    /// Gossip pushes dropped by dead carrier links.
    pub plane_pushes_dropped: u64,
}

/// Replays one cell under `t` and returns the metrics it rebuilt.
pub fn replay(sc: &Scenario, cfg: &CampaignConfig, t: &Tracer, counts: &mut Counts) -> Metrics {
    let label = sc.label();
    let rng = Stream::from_seed(cfg.master_seed).derive(&label);
    let mut timeline_rng = rng.derive("timeline");
    let profile =
        t.span("stutter.timeline", || sc.injector.timeline(cfg.horizon, &mut timeline_rng));

    let mut metrics: Metrics = Vec::new();
    metrics.push(("profile_mean_multiplier", Metric::F64(profile.mean_multiplier(cfg.horizon))));
    metrics.push((
        "profile_fail_at_ns",
        Metric::U64(profile.fail_at().map_or(u64::MAX, |t| t.as_nanos())),
    ));

    match sc.kind {
        Kind::Raid => raid(&profile, cfg, t, &mut metrics),
        Kind::Queue => queue(&profile, cfg, t, &mut metrics),
        Kind::Hedge => hedge(&profile, cfg, t, &mut metrics),
        Kind::Plane => plane(sc, cfg, &rng, t, counts, &mut metrics),
        Kind::Metastable => meta(&profile, &rng, t, counts, &mut metrics),
    }
    metrics
}

/// Keeps an oracle's verdict alive, so the optimiser cannot drop the call.
fn keep<T>(verdict: T) {
    std::hint::black_box(verdict);
}

/// True when two metric lists agree in names, kinds and exact bits.
pub fn same_metrics(a: &[(&'static str, Metric)], b: &[(&'static str, Metric)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((na, ma), (nb, mb))| {
            na == nb
                && match (ma, mb) {
                    (Metric::U64(x), Metric::U64(y)) => x == y,
                    (Metric::F64(x), Metric::F64(y)) => x.to_bits() == y.to_bits(),
                    _ => false,
                }
        })
}

fn raid(profile: &SlowdownProfile, cfg: &CampaignConfig, t: &Tracer, metrics: &mut Metrics) {
    const ELAPSED: [&str; 3] = ["s1_elapsed_ns", "s2_elapsed_ns", "s3_elapsed_ns"];
    const TP: [&str; 3] = ["s1_throughput", "s2_throughput", "s3_throughput"];
    let n = cfg.pairs;
    let nominal = cfg.nominal;
    let mut pairs: Vec<MirrorPair> = (0..n).map(|_| MirrorPair::healthy(nominal)).collect();
    pairs[0] =
        MirrorPair::new(VDisk::new(nominal).with_profile(profile.clone()), VDisk::new(nominal));
    let array = Raid10::new(pairs, cfg.horizon);
    let w = Workload::new(cfg.blocks, cfg.block_bytes);

    let runs = [
        t.span("raidsim.write.static", || array.write_static(w, SimTime::ZERO)),
        t.span("raidsim.write.proportional", || {
            array.write_proportional(w, SimTime::ZERO, SimTime::ZERO)
        }),
        t.span("raidsim.write.adaptive", || {
            array.write_adaptive(w, SimTime::ZERO, cfg.chunk_blocks)
        }),
    ];
    let mut ok = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let Ok(out) = run else { return };
        metrics.push((ELAPSED[i], Metric::U64(out.elapsed.as_nanos())));
        metrics.push((TP[i], Metric::F64(out.throughput)));
        ok.push(out.clone());
    }
    let (s1, s2, s3) = (&ok[0], &ok[1], &ok[2]);
    metrics
        .push(("s3_map_entries", Metric::U64(s3.block_map.as_ref().map_or(0, |m| m.len() as u64))));

    let oracle = |f: &dyn Fn() -> Result<(), roracle::Violation>| {
        keep(t.span("raidsim.oracle", f));
    };
    oracle(&|| roracle::check_conservation(s1, w));
    oracle(&|| roracle::check_conservation(s2, w));
    oracle(&|| roracle::check_conservation(s3, w));
    oracle(&|| roracle::check_block_map_partition(s3, w));
    for out in [s1, s2, s3] {
        oracle(&|| roracle::check_fault_never_helps(out, n, nominal, 1e-6));
    }
    oracle(&|| roracle::check_ordering(s1.throughput, s2.throughput, s3.throughput, 0.05));
    if profile.segments().len() == 1 && profile.fail_at().is_none() {
        let b = nominal * profile.multiplier_at(SimTime::ZERO);
        oracle(&|| roracle::check_scenario1(s1, n, nominal, b, 0.02));
        oracle(&|| roracle::check_scenario2(s2, n, nominal, b, 0.02));
        oracle(&|| roracle::check_scenario3(s3, n, nominal, b, 0.05));
    }

    t.span("stutter.detect", || detection(profile, cfg, metrics));
}

/// The detector/registry pipeline on the faulty pair, with its oracle.
fn detection(profile: &SlowdownProfile, cfg: &CampaignConfig, metrics: &mut Metrics) {
    const TOLERANCE: f64 = 0.9;
    const ALPHA: f64 = 0.3;
    const MARGIN: f64 = 0.05;
    const SETTLE_SAMPLES: usize = 40;
    const PERSISTENCE_SECS: u64 = 30;

    let step = SimDuration::from_secs(1);
    let samples = soracle::sample_multipliers(profile, step, cfg.monitor_window);
    let prediction = soracle::predict_export(
        &samples,
        TOLERANCE,
        PERSISTENCE_SECS as usize + 1,
        SETTLE_SAMPLES,
        MARGIN,
    );
    let spec = PerfSpec::constant_with_tolerance(cfg.nominal, TOLERANCE);
    let mut detector = EwmaDetector::new(spec, ALPHA);
    let mut registry = Registry::new(SimDuration::from_secs(PERSISTENCE_SECS));
    for (k, m) in samples.iter().enumerate() {
        let verdict = detector.observe(cfg.nominal * m);
        registry.report(ComponentId(0), SimTime::from_secs(k as u64), verdict);
    }
    let published_faulty =
        registry.notifications().iter().any(|nf| !matches!(nf.state, HealthState::Healthy));

    metrics.push((
        "detect_prediction",
        Metric::U64(match prediction {
            soracle::ExportPrediction::MustExport => 2,
            soracle::ExportPrediction::MustStaySilent => 0,
            soracle::ExportPrediction::Unconstrained => 1,
        }),
    ));
    metrics.push(("detect_published", Metric::U64(u64::from(published_faulty))));
    metrics.push(("detect_notifications", Metric::U64(registry.notifications().len() as u64)));
    metrics.push(("detect_suppressed", Metric::U64(registry.suppressed())));
    keep(soracle::check_export_agreement(prediction, published_faulty));
}

/// Allowance for the pull-vs-push oracle: one longest stall plus one item
/// at the slowest positive rate (the campaign computes it the same way).
fn pull_slack(profile: &SlowdownProfile, cfg: &CampaignConfig, window: SimDuration) -> SimDuration {
    let end = SimTime::ZERO + window;
    let segs = profile.segments();
    let mut longest_zero = SimDuration::ZERO;
    let mut zero_run_start: Option<SimTime> = None;
    let mut min_pos = 1.0f64;
    for (i, &(start, m)) in segs.iter().enumerate() {
        if start > end {
            break;
        }
        let seg_end = segs.get(i + 1).map_or(end, |&(s, _)| s).min(end);
        if m <= 0.0 {
            let run_start = *zero_run_start.get_or_insert(start);
            longest_zero = longest_zero.max(seg_end.saturating_since(run_start));
        } else {
            zero_run_start = None;
            min_pos = min_pos.min(m);
        }
    }
    longest_zero + SimDuration::from_secs_f64(cfg.item_units / (cfg.nominal * min_pos))
}

fn queue(profile: &SlowdownProfile, cfg: &CampaignConfig, t: &Tracer, metrics: &mut Metrics) {
    let n = cfg.pairs;
    let mut rates = vec![RateProfile::constant(cfg.nominal); n];
    rates[0] = profile.to_rate_profile(cfg.nominal);

    let push = t.span("adapt.distribute.push", || {
        distribute(Strategy::Push, &rates, cfg.items, cfg.item_units, SimTime::ZERO)
    });
    let pull = t.span("adapt.distribute.pull", || {
        distribute(Strategy::Pull, &rates, cfg.items, cfg.item_units, SimTime::ZERO)
    });

    metrics.push(("push_ok", Metric::U64(u64::from(push.is_ok()))));
    metrics.push((
        "push_makespan_ns",
        Metric::U64(push.as_ref().map_or(u64::MAX, |o| o.makespan.as_nanos())),
    ));
    let Ok(pull) = pull else { return };
    metrics.push(("pull_makespan_ns", Metric::U64(pull.makespan.as_nanos())));
    const NAMES: [&str; 4] =
        ["pull_consumer_0", "pull_consumer_1", "pull_consumer_2", "pull_consumer_3"];
    for (name, &c) in NAMES.iter().zip(&pull.per_consumer) {
        metrics.push((name, Metric::U64(c)));
    }

    keep(qoracle::check_queue_conservation(&pull, cfg.items));
    let floor = qoracle::aggregate_floor(cfg.items, cfg.item_units, cfg.nominal * n as f64);
    keep(qoracle::check_aggregate_floor(&pull, floor, 1e-6));
    if let Ok(push) = push {
        keep(qoracle::check_queue_conservation(&push, cfg.items));
        keep(qoracle::check_aggregate_floor(&push, floor, 1e-6));
        let window = push.makespan + SimDuration::from_secs(60);
        let slack = pull_slack(profile, cfg, window);
        keep(qoracle::check_pull_competitive(&pull, &push, slack, 0.05));
    }
}

fn hedge(profile: &SlowdownProfile, cfg: &CampaignConfig, t: &Tracer, metrics: &mut Metrics) {
    let n = cfg.pairs;
    let mut rates = vec![RateProfile::constant(cfg.nominal); n];
    rates[0] = profile.to_rate_profile(cfg.nominal);

    let run = |hedge_after| {
        t.span("adapt.run_hedged", || {
            run_hedged(
                &rates,
                cfg.tasks,
                cfg.task_units,
                HedgeConfig { hedge_after },
                SimTime::ZERO,
            )
        })
    };
    let blocking = run(None);
    let hedged = run(Some(cfg.hedge_after));

    metrics.push(("blocking_ok", Metric::U64(u64::from(blocking.is_some()))));
    metrics.push((
        "blocking_makespan_ns",
        Metric::U64(blocking.as_ref().map_or(u64::MAX, |o| o.makespan.as_nanos())),
    ));
    if let Some(blocking) = &blocking {
        keep(qoracle::check_hedge_sanity(blocking, cfg.tasks, n));
        keep(qoracle::check_blocking_spends_everything(blocking));
    }
    let Some(hedged) = hedged else { return };
    metrics.push(("hedged_makespan_ns", Metric::U64(hedged.makespan.as_nanos())));
    metrics.push(("hedged_worst_latency_ns", Metric::U64(hedged.worst_latency().as_nanos())));
    metrics.push(("hedged_work_spent", Metric::F64(hedged.work_spent)));
    metrics.push(("hedged_work_wasted", Metric::F64(hedged.work_wasted)));
    metrics.push(("hedged_reconciled", Metric::U64(hedged.reconciled)));
    metrics.push((
        "hedged_count",
        Metric::U64(hedged.tasks.iter().filter(|t| t.hedged).count() as u64),
    ));
    keep(qoracle::check_hedge_sanity(&hedged, cfg.tasks, n));
}

fn plane(
    sc: &Scenario,
    cfg: &CampaignConfig,
    rng: &Stream,
    t: &Tracer,
    counts: &mut Counts,
    metrics: &mut Metrics,
) {
    let n = cfg.pairs;
    let nominal = cfg.nominal;
    let plane_cfg = PlaneConfig::default();
    let plane_horizon = plane_cfg.horizon;

    let mut drift_rng = rng.derive("drift");
    let drift = SlowdownProfile::from_breakpoints(vec![
        (SimTime::ZERO, 1.0),
        (SimTime::from_secs(60), drift_rng.next_f64_range(0.25, 1.0)),
        (SimTime::from_secs(120), drift_rng.next_f64_range(0.25, 1.0)),
        (SimTime::from_secs(180), drift_rng.next_f64_range(0.25, 1.0)),
    ]);

    let mut spec = PlaneSpec::homogeneous(plane_cfg, n, nominal);
    spec.components[0].profile = drift.clone();
    let link_rng = rng.derive("links");
    for from in 0..n {
        for to in 0..n {
            if from == to {
                continue;
            }
            let mut r = link_rng.derive_index((from * n + to) as u64);
            let profile =
                t.span("stutter.timeline", || sc.injector.timeline(plane_horizon, &mut r));
            spec.set_link_profile(from, to, profile);
        }
    }

    let run_plane = |spec: &PlaneSpec, counts: &mut Counts| {
        let run = t.span("perfplane.run_plane", || {
            perfplane::gossip::run_plane(spec, &mut rng.derive("plane"))
        });
        counts.plane_delivered += run.stats.delivered;
        counts.plane_merges += run.stats.merges;
        counts.plane_pushes_dropped += run.stats.pushes_dropped;
        run
    };
    let fresh = run_plane(&spec, counts);
    let degraded = run_plane(&spec.degraded(0.5), counts);

    metrics.push(("plane_pushes", Metric::U64(fresh.stats.pushes_sent)));
    metrics.push(("plane_merges", Metric::U64(fresh.stats.merges)));
    metrics.push(("plane_tombstones", Metric::U64(fresh.stats.tombstones)));
    metrics.push(("plane_carrier_bytes", Metric::U64(fresh.stats.carrier_bytes)));

    let write_at = SimTime::ZERO + SimDuration::from_secs(300);
    let mut pairs: Vec<MirrorPair> = (0..n).map(|_| MirrorPair::healthy(nominal)).collect();
    pairs[0] = MirrorPair::new(VDisk::new(nominal).with_profile(drift), VDisk::new(nominal));
    let array = Raid10::new(pairs, cfg.horizon);
    let w = Workload::new(cfg.blocks, cfg.block_bytes);

    let write_estimated = |view: &StalenessView| {
        let mut est = |i: usize, at: SimTime| {
            t.span("perfplane.estimated_rate", || {
                view.estimated_rate(ComponentId(i as u32), at, nominal)
            })
        };
        t.span("raidsim.write.estimated", || {
            array.write_estimated(w, write_at, cfg.chunk_blocks, &mut est)
        })
    };
    let planned = write_estimated(&fresh.views[n - 1]);
    let planned_degraded = write_estimated(&degraded.views[n - 1]);
    let omniscient =
        t.span("raidsim.write.adaptive", || array.write_adaptive(w, write_at, cfg.chunk_blocks));
    let blind = t.span("raidsim.write.static", || array.write_static(w, write_at));

    let (Ok(planned), Ok(planned_degraded), Ok(omniscient), Ok(blind)) =
        (planned, planned_degraded, omniscient, blind)
    else {
        return;
    };
    metrics.push(("planned_throughput", Metric::F64(planned.throughput)));
    metrics.push(("planned_degraded_throughput", Metric::F64(planned_degraded.throughput)));
    metrics.push(("omniscient_throughput", Metric::F64(omniscient.throughput)));
    metrics.push(("static_throughput", Metric::F64(blind.throughput)));

    keep(t.span("raidsim.oracle", || roracle::check_conservation(&planned, w)));
    keep(t.span("raidsim.oracle", || roracle::check_block_map_partition(&planned, w)));
    let oracle = |f: &dyn Fn() -> Vec<poracle::Violation>| {
        keep(t.span("perfplane.oracle", f));
    };
    oracle(&|| {
        poracle::check_plane_degraded(planned.throughput, planned_degraded.throughput, 0.05)
    });
    let slack =
        t.span("perfplane.oracle", || poracle::link_slack(&spec.link_profiles, plane_horizon));
    if let Some(slack) = slack {
        let allowance =
            t.span("perfplane.oracle", || poracle::convergence_allowance(&fresh, slack));
        oracle(&|| poracle::check_convergence(&fresh, allowance));
    }
    oracle(&|| poracle::check_no_false_failstop(&fresh));
    oracle(&|| poracle::check_monotone(&fresh));
}

fn meta(
    profile: &SlowdownProfile,
    rng: &Stream,
    t: &Tracer,
    counts: &mut Counts,
    metrics: &mut Metrics,
) {
    let mcfg = metastable::engine::Config::campaign();
    let params = moracle::OracleParams::default();
    let trigger = t.span("metastable.trigger_window", || {
        trigger_window(profile, SimTime::from_secs(60), SimDuration::from_secs(30), 100.0)
    });

    let mut variant = |mit: Mitigation, stream: &str| {
        let mut vrng = rng.derive(stream);
        let tr =
            t.span("metastable.run", || metastable::engine::run(&mcfg, &trigger, mit, &mut vrng));
        let a = t.span("metastable.assess", || moracle::assess(&mcfg, &tr, &params));
        let totals = &tr.totals;
        counts.meta_attempts += totals.issued_fresh + totals.issued_retry + totals.issued_open;
        counts.meta_served_live += totals.served_live;
        counts.meta_ticks += mcfg.ticks();
        (tr, a)
    };
    let (un_tr, un_a) = variant(Mitigation::None, "meta-unmitigated");
    let shed = Mitigation::Shed(ShedConfig { max_depth: 1_000, drop_expired: true });
    let (sh_tr, sh_a) = variant(shed, "meta-shed");
    let breaker = Mitigation::Breaker(BreakerConfig {
        window_ticks: 100,
        open_threshold: 0.5,
        half_open_threshold: 0.1,
        min_failures: 50,
        min_failures_half: 20,
        probe_per_tick: 2,
        half_open_per_tick: 50,
    });
    let (br_tr, br_a) = variant(breaker, "meta-breaker");

    let (trig_first, trig_last) = un_a.trigger_secs.map_or((u64::MAX, u64::MAX), |(a, b)| (a, b));
    metrics.push(("meta_trigger_first_s", Metric::U64(trig_first)));
    metrics.push(("meta_trigger_last_s", Metric::U64(trig_last)));
    metrics.push(("meta_predicted_vulnerable", Metric::U64(u64::from(un_a.predicted_vulnerable))));
    metrics.push(("meta_baseline_per_s", Metric::F64(un_a.baseline_per_sec)));
    metrics.push(("meta_unmit_goodput", Metric::U64(un_tr.total_goodput())));
    metrics.push(("meta_unmit_regime", Metric::U64(un_a.regime.code())));
    metrics.push(("meta_unmit_collapsed_s", Metric::U64(un_a.collapsed_secs_post)));
    metrics.push(("meta_shed_goodput", Metric::U64(sh_tr.total_goodput())));
    metrics.push(("meta_shed_recovery_s", Metric::U64(sh_a.recovery_secs.unwrap_or(u64::MAX))));
    metrics.push(("meta_breaker_goodput", Metric::U64(br_tr.total_goodput())));
    metrics.push(("meta_breaker_recovery_s", Metric::U64(br_a.recovery_secs.unwrap_or(u64::MAX))));

    t.span("metastable.oracle", || {
        keep(moracle::check_conservation(&mcfg, &un_tr));
        keep(moracle::check_conservation(&mcfg, &sh_tr));
        keep(moracle::check_conservation(&mcfg, &br_tr));
        keep(moracle::check_capacity(&un_tr));
        keep(moracle::check_capacity(&sh_tr));
        keep(moracle::check_capacity(&br_tr));
        keep(moracle::check_no_trigger_stable(&un_a));
        keep(moracle::check_prediction(&un_a));
        keep(moracle::check_mitigation_recovers(&sh_a, &params));
        keep(moracle::check_mitigation_recovers(&br_a, &params));
        keep(moracle::check_mitigation_effective(&un_a, &sh_a));
        keep(moracle::check_mitigation_effective(&un_a, &br_a));
    });
}
