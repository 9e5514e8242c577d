//! Scenario enumeration and single-scenario execution.
//!
//! A scenario is one (mechanism kind × injector × replicate) cell of the
//! campaign cross-product. Its result is a pure function of the campaign
//! config and the scenario label: the RNG stream is derived from the master
//! seed by label, so any cell can be re-run in isolation (`fs-campaign
//! --scenario <label>`) and must reproduce bit-for-bit.

use super::digest::Fnv64;
use super::CampaignConfig;
use adapt::oracle as qoracle;
use adapt::prelude::*;
use metastable::oracle as moracle;
use metastable::policy::{BreakerConfig, Mitigation, ShedConfig};
use metastable::server::trigger_window;
use perfplane::oracle as poracle;
use perfplane::prelude::*;
use raidsim::oracle as roracle;
use raidsim::prelude::*;
use simcore::prelude::*;
use simcore::resource::RateProfile;
use stutter::catalog;
use stutter::oracle as soracle;
use stutter::prelude::*;
use stutter::spec::PerfSpec;

/// Which mechanism the scenario exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The §3.2 RAID-10 write controllers (scenarios 1–3) plus the
    /// detector/registry pipeline watching the faulty pair.
    Raid,
    /// Push vs pull work distribution (`adapt::queue`).
    Queue,
    /// Duplicate-issue hedging (`adapt::hedge`).
    Hedge,
    /// The gossiped performance-state plane driving a Scenario-3bis RAID
    /// controller, with the injector applied to the plane's own carrier
    /// links (`perfplane`).
    Plane,
    /// A closed-loop client population with timeouts and retries over a
    /// bounded server queue, the injector windowed into a transient
    /// capacity trigger; run unmitigated and under load-shedding and
    /// circuit-breaker policies, with sustaining-effect oracles
    /// (`metastable`).
    Metastable,
}

impl Kind {
    /// Stable label fragment.
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Raid => "raid",
            Kind::Queue => "queue",
            Kind::Hedge => "hedge",
            Kind::Plane => "plane",
            Kind::Metastable => "meta",
        }
    }

    /// All kinds, in enumeration order.
    pub fn all() -> [Kind; 5] {
        [Kind::Raid, Kind::Queue, Kind::Hedge, Kind::Plane, Kind::Metastable]
    }
}

/// One cell of the campaign cross-product.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Position in enumeration order; fixes result and digest order.
    pub id: usize,
    /// Mechanism under test.
    pub kind: Kind,
    /// Slugged injector name (stable across runs).
    pub injector_label: String,
    /// The §2 phenomenon injected into one component.
    pub injector: Injector,
    /// Replicate index; varies only the derived seed.
    pub replicate: u64,
}

impl Scenario {
    /// The scenario's stable label, also its RNG derivation path.
    pub fn label(&self) -> String {
        format!("{}/{}/r{}", self.kind.tag(), self.injector_label, self.replicate)
    }
}

/// A single measured value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Metric {
    /// An exact integer (counts, nanoseconds).
    U64(u64),
    /// A measured rate or ratio, digested as its bit pattern.
    F64(f64),
}

/// Outcome of one oracle check.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Stable oracle identifier.
    pub oracle: String,
    /// Whether the oracle accepted the run.
    pub passed: bool,
    /// Expected-vs-measured detail when it did not.
    pub detail: String,
}

/// The result of running one scenario: metrics, verdicts, and a digest.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Copied from the scenario.
    pub id: usize,
    /// Copied from the scenario.
    pub label: String,
    /// Named measurements in a stable order.
    pub metrics: Vec<(&'static str, Metric)>,
    /// Every oracle verdict, in a stable order.
    pub checks: Vec<CheckResult>,
    /// FNV-1a over label, metrics, and verdicts.
    pub digest: u64,
}

impl ScenarioResult {
    fn new(
        id: usize,
        label: String,
        metrics: Vec<(&'static str, Metric)>,
        checks: Vec<CheckResult>,
    ) -> Self {
        let mut h = Fnv64::new();
        h.write_str(&label);
        for (name, m) in &metrics {
            h.write_str(name);
            match *m {
                Metric::U64(v) => {
                    h.write_u64(0);
                    h.write_u64(v);
                }
                Metric::F64(v) => {
                    h.write_u64(1);
                    h.write_f64(v);
                }
            }
        }
        for c in &checks {
            h.write_str(&c.oracle);
            h.write_u64(u64::from(c.passed));
        }
        let digest = h.finish();
        ScenarioResult { id, label, metrics, checks, digest }
    }

    /// Number of oracle checks that passed.
    pub fn checks_passed(&self) -> usize {
        self.checks.iter().filter(|c| c.passed).count()
    }

    /// The failed checks.
    pub fn violations(&self) -> impl Iterator<Item = &CheckResult> {
        self.checks.iter().filter(|c| !c.passed)
    }
}

/// Lower-cases and slugs an injector display name into a label fragment.
fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut dash = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !out.is_empty() {
            out.push('-');
            dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

/// The injector axis: no fault, the full §2 catalog, and §3.3 wear-out.
fn injector_catalog() -> Vec<(String, Injector)> {
    let mut v = vec![("no-fault".to_string(), Injector::NoFault)];
    for (name, inj) in catalog::all() {
        v.push((slug(name), inj));
    }
    v.push((
        "wearout-3-3".to_string(),
        catalog::wearout(SimTime::from_secs(600), SimDuration::from_secs(600)),
    ));
    v
}

/// Enumerates the full cross-product in a stable order.
pub fn enumerate(cfg: &CampaignConfig) -> Vec<Scenario> {
    let catalog = injector_catalog();
    let mut out = Vec::new();
    for kind in Kind::all() {
        for (label, injector) in &catalog {
            for replicate in 0..cfg.replicates {
                out.push(Scenario {
                    id: out.len(),
                    kind,
                    injector_label: label.clone(),
                    injector: injector.clone(),
                    replicate,
                });
            }
        }
    }
    out
}

/// Records one oracle verdict: a pass under the check's `name`, a failure
/// under the name of the oracle that fired.
fn chk(checks: &mut Vec<CheckResult>, name: &'static str, r: Result<(), soracle::Violation>) {
    match r {
        Ok(()) => {
            checks.push(CheckResult { oracle: name.into(), passed: true, detail: String::new() })
        }
        Err(v) => {
            checks.push(CheckResult { oracle: v.oracle.into(), passed: false, detail: v.detail })
        }
    }
}

fn chk_bool(checks: &mut Vec<CheckResult>, name: &'static str, passed: bool, detail: String) {
    checks.push(CheckResult {
        oracle: name.into(),
        passed,
        detail: if passed { String::new() } else { detail },
    });
}

/// A profile with a single segment and no failure runs at a constant rate,
/// which is when the §3.2 closed forms apply exactly.
fn profile_is_constant(p: &SlowdownProfile) -> bool {
    p.segments().len() == 1 && p.fail_at().is_none()
}

/// Runs one scenario to completion. Pure: depends only on `sc` and `cfg`.
pub fn run_scenario(sc: &Scenario, cfg: &CampaignConfig) -> ScenarioResult {
    let label = sc.label();
    let rng = Stream::from_seed(cfg.master_seed).derive(&label);
    let mut timeline_rng = rng.derive("timeline");
    let profile = sc.injector.timeline(cfg.horizon, &mut timeline_rng);

    let mut metrics: Vec<(&'static str, Metric)> = Vec::new();
    let mut checks: Vec<CheckResult> = Vec::new();
    metrics.push(("profile_mean_multiplier", Metric::F64(profile.mean_multiplier(cfg.horizon))));
    metrics.push((
        "profile_fail_at_ns",
        Metric::U64(profile.fail_at().map_or(u64::MAX, |t| t.as_nanos())),
    ));

    match sc.kind {
        Kind::Raid => run_raid(&profile, cfg, &mut metrics, &mut checks),
        Kind::Queue => run_queue(&profile, cfg, &mut metrics, &mut checks),
        Kind::Hedge => run_hedge(&profile, cfg, &mut metrics, &mut checks),
        Kind::Plane => run_plane_cell(sc, cfg, &rng, &mut metrics, &mut checks),
        Kind::Metastable => run_metastable(&profile, &rng, &mut metrics, &mut checks),
    }

    ScenarioResult::new(sc.id, label, metrics, checks)
}

fn write_metrics(metrics: &mut Vec<(&'static str, Metric)>, prefix: usize, out: &WriteOutcome) {
    const ELAPSED: [&str; 3] = ["s1_elapsed_ns", "s2_elapsed_ns", "s3_elapsed_ns"];
    const TP: [&str; 3] = ["s1_throughput", "s2_throughput", "s3_throughput"];
    metrics.push((ELAPSED[prefix], Metric::U64(out.elapsed.as_nanos())));
    metrics.push((TP[prefix], Metric::F64(out.throughput)));
}

fn run_raid(
    profile: &SlowdownProfile,
    cfg: &CampaignConfig,
    metrics: &mut Vec<(&'static str, Metric)>,
    checks: &mut Vec<CheckResult>,
) {
    let n = cfg.pairs;
    let nominal = cfg.nominal;
    let mut pairs: Vec<MirrorPair> = (0..n).map(|_| MirrorPair::healthy(nominal)).collect();
    pairs[0] =
        MirrorPair::new(VDisk::new(nominal).with_profile(profile.clone()), VDisk::new(nominal));
    let array = Raid10::new(pairs, cfg.horizon);
    let w = Workload::new(cfg.blocks, cfg.block_bytes);

    let runs = [
        array.write_static(w, SimTime::ZERO),
        array.write_proportional(w, SimTime::ZERO, SimTime::ZERO),
        array.write_adaptive(w, SimTime::ZERO, cfg.chunk_blocks),
    ];
    let mut ok = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        match run {
            Ok(out) => {
                write_metrics(metrics, i, out);
                ok.push(out.clone());
            }
            Err(e) => {
                // A mirrored pair survives a single replica failure, so no
                // §2 injector may kill a controller.
                chk_bool(
                    checks,
                    "raid/controller-completes",
                    false,
                    format!("scenario {}: {e:?}", i + 1),
                );
                return;
            }
        }
    }
    let (s1, s2, s3) = (&ok[0], &ok[1], &ok[2]);
    metrics
        .push(("s3_map_entries", Metric::U64(s3.block_map.as_ref().map_or(0, |m| m.len() as u64))));

    chk(checks, "raid/conservation", roracle::check_conservation(s1, w));
    chk(checks, "raid/conservation", roracle::check_conservation(s2, w));
    chk(checks, "raid/conservation", roracle::check_conservation(s3, w));
    chk(checks, "raid/block-map", roracle::check_block_map_partition(s3, w));
    for out in [s1, s2, s3] {
        chk(
            checks,
            "raid/fault-never-helps",
            roracle::check_fault_never_helps(out, n, nominal, 1e-6),
        );
    }
    chk(
        checks,
        "raid/ordering",
        roracle::check_ordering(s1.throughput, s2.throughput, s3.throughput, 0.05),
    );

    if profile_is_constant(profile) {
        let b = nominal * profile.multiplier_at(SimTime::ZERO);
        chk(
            checks,
            "raid/scenario1-closed-form",
            roracle::check_scenario1(s1, n, nominal, b, 0.02),
        );
        chk(
            checks,
            "raid/scenario2-closed-form",
            roracle::check_scenario2(s2, n, nominal, b, 0.02),
        );
        chk(
            checks,
            "raid/scenario3-closed-form",
            roracle::check_scenario3(s3, n, nominal, b, 0.05),
        );
        // With a truthful gauge, proportional assignment is a theorem-level
        // improvement over the equal split.
        chk_bool(
            checks,
            "raid/ordering-s2-vs-s1",
            s2.throughput >= s1.throughput * (1.0 - 1e-9),
            format!("proportional {:.6e} below equal-static {:.6e}", s2.throughput, s1.throughput),
        );
    } else if profile.multiplier_at(SimTime::ZERO) == 1.0 && cfg.blocks.is_multiple_of(n as u64) {
        // The gauge sees four equal rates, so the proportional controller
        // must degenerate to the equal split, bit for bit.
        chk_bool(
            checks,
            "raid/equal-gauge-matches-static",
            s2.elapsed == s1.elapsed,
            format!(
                "equal gauge but proportional elapsed {} ns != static {} ns",
                s2.elapsed.as_nanos(),
                s1.elapsed.as_nanos()
            ),
        );
    }

    run_detection(profile, cfg, metrics, checks);
}

/// Replays the detector/registry pipeline on the faulty pair and checks it
/// against the timeline oracle (see `stutter::oracle` for the soundness
/// contract; the constants here satisfy it: `0.7^40 ≈ 6e-7 ≪ margin`).
fn run_detection(
    profile: &SlowdownProfile,
    cfg: &CampaignConfig,
    metrics: &mut Vec<(&'static str, Metric)>,
    checks: &mut Vec<CheckResult>,
) {
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

    chk(
        checks,
        "stutter/export-agreement",
        soracle::check_export_agreement(prediction, published_faulty),
    );
}

/// Slack allowance for the pull-vs-push comparison: the last pulled item
/// may land on the faulty consumer just as its worst stall begins, so allow
/// one longest stall plus one item at the slowest positive rate.
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
    let item_secs = cfg.item_units / (cfg.nominal * min_pos);
    longest_zero + SimDuration::from_secs_f64(item_secs)
}

fn run_queue(
    profile: &SlowdownProfile,
    cfg: &CampaignConfig,
    metrics: &mut Vec<(&'static str, Metric)>,
    checks: &mut Vec<CheckResult>,
) {
    let n = cfg.pairs;
    let mut rates = vec![RateProfile::constant(cfg.nominal); n];
    rates[0] = profile.to_rate_profile(cfg.nominal);

    let push = distribute(Strategy::Push, &rates, cfg.items, cfg.item_units, SimTime::ZERO);
    let pull = distribute(Strategy::Pull, &rates, cfg.items, cfg.item_units, SimTime::ZERO);

    metrics.push(("push_ok", Metric::U64(u64::from(push.is_ok()))));
    metrics.push((
        "push_makespan_ns",
        Metric::U64(push.as_ref().map_or(u64::MAX, |o| o.makespan.as_nanos())),
    ));

    // A static partition starves only when its consumer dies outright.
    chk_bool(
        checks,
        "queue/push-starves-only-on-failure",
        push.is_ok() || profile.fail_at().is_some(),
        "push starved although the consumer never failed".to_string(),
    );
    // The distributed queue routes around a dead consumer, always.
    let pull = match pull {
        Ok(out) => out,
        Err(e) => {
            chk_bool(checks, "queue/pull-completes", false, format!("{e:?}"));
            return;
        }
    };
    chk_bool(checks, "queue/pull-completes", true, String::new());
    metrics.push(("pull_makespan_ns", Metric::U64(pull.makespan.as_nanos())));
    for (i, &c) in pull.per_consumer.iter().enumerate() {
        const NAMES: [&str; 4] =
            ["pull_consumer_0", "pull_consumer_1", "pull_consumer_2", "pull_consumer_3"];
        if i < NAMES.len() {
            metrics.push((NAMES[i], Metric::U64(c)));
        }
    }

    chk(checks, "queue/conservation", qoracle::check_queue_conservation(&pull, cfg.items));
    let floor = qoracle::aggregate_floor(cfg.items, cfg.item_units, cfg.nominal * n as f64);
    chk(checks, "queue/aggregate-floor", qoracle::check_aggregate_floor(&pull, floor, 1e-6));

    if let Ok(push) = push {
        chk(checks, "queue/conservation", qoracle::check_queue_conservation(&push, cfg.items));
        chk(checks, "queue/aggregate-floor", qoracle::check_aggregate_floor(&push, floor, 1e-6));
        let window = push.makespan + SimDuration::from_secs(60);
        let slack = pull_slack(profile, cfg, window);
        chk(
            checks,
            "queue/pull-competitive",
            qoracle::check_pull_competitive(&pull, &push, slack, 0.05),
        );
    }
}

fn run_hedge(
    profile: &SlowdownProfile,
    cfg: &CampaignConfig,
    metrics: &mut Vec<(&'static str, Metric)>,
    checks: &mut Vec<CheckResult>,
) {
    let n = cfg.pairs;
    let mut rates = vec![RateProfile::constant(cfg.nominal); n];
    rates[0] = profile.to_rate_profile(cfg.nominal);

    let blocking = run_hedged(
        &rates,
        cfg.tasks,
        cfg.task_units,
        HedgeConfig { hedge_after: None },
        SimTime::ZERO,
    );
    let hedged = run_hedged(
        &rates,
        cfg.tasks,
        cfg.task_units,
        HedgeConfig { hedge_after: Some(cfg.hedge_after) },
        SimTime::ZERO,
    );

    metrics.push(("blocking_ok", Metric::U64(u64::from(blocking.is_some()))));
    metrics.push((
        "blocking_makespan_ns",
        Metric::U64(blocking.as_ref().map_or(u64::MAX, |o| o.makespan.as_nanos())),
    ));

    // Blocking issue stalls forever only on a dead worker.
    chk_bool(
        checks,
        "hedge/blocking-fails-only-on-failure",
        blocking.is_some() || profile.fail_at().is_some(),
        "blocking run stuck although no worker failed".to_string(),
    );
    if let Some(blocking) = &blocking {
        chk(checks, "hedge/sanity", qoracle::check_hedge_sanity(blocking, cfg.tasks, n));
        chk(checks, "hedge/blocking-no-waste", qoracle::check_blocking_spends_everything(blocking));
    }

    // With n−1 healthy workers, duplicate issue always rescues the batch.
    let hedged = match hedged {
        Some(out) => out,
        None => {
            chk_bool(
                checks,
                "hedge/hedged-completes",
                false,
                "hedged run returned None".to_string(),
            );
            return;
        }
    };
    chk_bool(checks, "hedge/hedged-completes", true, String::new());

    metrics.push(("hedged_makespan_ns", Metric::U64(hedged.makespan.as_nanos())));
    metrics.push(("hedged_worst_latency_ns", Metric::U64(hedged.worst_latency().as_nanos())));
    metrics.push(("hedged_work_spent", Metric::F64(hedged.work_spent)));
    metrics.push(("hedged_work_wasted", Metric::F64(hedged.work_wasted)));
    metrics.push(("hedged_reconciled", Metric::U64(hedged.reconciled)));
    metrics.push((
        "hedged_count",
        Metric::U64(hedged.tasks.iter().filter(|t| t.hedged).count() as u64),
    ));

    chk(checks, "hedge/sanity", qoracle::check_hedge_sanity(&hedged, cfg.tasks, n));
    // Every committed task moved task_units through a worker no faster
    // than nominal, so total busy time has a hard floor.
    let spent_floor = cfg.tasks as f64 * cfg.task_units / cfg.nominal;
    chk_bool(
        checks,
        "hedge/spent-floor",
        hedged.work_spent >= spent_floor * (1.0 - 1e-9),
        format!("spent {:.6e}s, floor {:.6e}s", hedged.work_spent, spent_floor),
    );
}

fn chk_plane(checks: &mut Vec<CheckResult>, name: &'static str, violations: &[poracle::Violation]) {
    let detail = violations.iter().map(|v| v.detail.clone()).collect::<Vec<_>>().join("; ");
    chk_bool(checks, name, violations.is_empty(), detail);
}

/// The plane cell: a gossiped performance-state plane whose *carrier links*
/// run under the scenario's injector, driving a Scenario-3bis RAID
/// controller from the staleness views it produces.
///
/// Pair 0 drifts to a seed-derived multiplier (settling at 180 s, so faults
/// are quiescent long before the horizon); every directed gossip link gets
/// its own independently-derived injector timeline. A consumer at the last
/// node then writes through [`Raid10::write_estimated`] planning purely
/// from its view, bracketed by the omniscient scenario-3 controller above
/// and the blind scenario-1 controller below, plus a degraded twin of the
/// whole plane for the metamorphic carrier check.
fn run_plane_cell(
    sc: &Scenario,
    cfg: &CampaignConfig,
    rng: &Stream,
    metrics: &mut Vec<(&'static str, Metric)>,
    checks: &mut Vec<CheckResult>,
) {
    let n = cfg.pairs;
    let nominal = cfg.nominal;
    let plane_cfg = PlaneConfig::default();
    let plane_horizon = plane_cfg.horizon;

    // Pair 0 drifts through two seed-derived steps and settles at 180 s.
    let mut drift_rng = rng.derive("drift");
    let drift = SlowdownProfile::from_breakpoints(vec![
        (SimTime::ZERO, 1.0),
        (SimTime::from_secs(60), drift_rng.next_f64_range(0.25, 1.0)),
        (SimTime::from_secs(120), drift_rng.next_f64_range(0.25, 1.0)),
        (SimTime::from_secs(180), drift_rng.next_f64_range(0.25, 1.0)),
    ]);

    let mut spec = PlaneSpec::homogeneous(plane_cfg, n, nominal);
    spec.components[0].profile = drift.clone();
    // The injector attacks the plane's own carrier: every directed link
    // gets an independent timeline from the scenario's seed tree.
    let link_rng = rng.derive("links");
    for from in 0..n {
        for to in 0..n {
            if from == to {
                continue;
            }
            let mut r = link_rng.derive_index((from * n + to) as u64);
            spec.set_link_profile(from, to, sc.injector.timeline(plane_horizon, &mut r));
        }
    }

    let fresh = perfplane::gossip::run_plane(&spec, &mut rng.derive("plane"));
    let degraded_spec = spec.degraded(0.5);
    let degraded = perfplane::gossip::run_plane(&degraded_spec, &mut rng.derive("plane"));

    metrics.push(("plane_pushes", Metric::U64(fresh.stats.pushes_sent)));
    metrics.push(("plane_merges", Metric::U64(fresh.stats.merges)));
    metrics.push(("plane_tombstones", Metric::U64(fresh.stats.tombstones)));
    metrics.push(("plane_carrier_bytes", Metric::U64(fresh.stats.carrier_bytes)));

    // The consumer: node n−1 writes through the array planning only from
    // its gossiped view, long after the drift settled.
    let write_at = SimTime::ZERO + SimDuration::from_secs(300);
    let mut pairs: Vec<MirrorPair> = (0..n).map(|_| MirrorPair::healthy(nominal)).collect();
    pairs[0] = MirrorPair::new(VDisk::new(nominal).with_profile(drift), VDisk::new(nominal));
    let array = Raid10::new(pairs, cfg.horizon);
    let w = Workload::new(cfg.blocks, cfg.block_bytes);

    // fslint: allow(panic-path) — run_plane asserts n >= 2 and returns exactly one view per node
    let consumer = &fresh.views[n - 1];
    let mut est =
        |i: usize, at: SimTime| consumer.estimated_rate(ComponentId(i as u32), at, nominal);
    let planned = array.write_estimated(w, write_at, cfg.chunk_blocks, &mut est);
    // fslint: allow(panic-path) — run_plane asserts n >= 2 and returns exactly one view per node
    let degraded_consumer = &degraded.views[n - 1];
    let mut est_deg = |i: usize, at: SimTime| {
        degraded_consumer.estimated_rate(ComponentId(i as u32), at, nominal)
    };
    let planned_degraded = array.write_estimated(w, write_at, cfg.chunk_blocks, &mut est_deg);
    let omniscient = array.write_adaptive(w, write_at, cfg.chunk_blocks);
    let blind = array.write_static(w, write_at);

    let (Ok(planned), Ok(planned_degraded), Ok(omniscient), Ok(blind)) =
        (planned, planned_degraded, omniscient, blind)
    else {
        chk_bool(
            checks,
            "plane/consumer-completes",
            false,
            "a controller failed although no pair died".to_string(),
        );
        return;
    };
    chk_bool(checks, "plane/consumer-completes", true, String::new());

    metrics.push(("planned_throughput", Metric::F64(planned.throughput)));
    metrics.push(("planned_degraded_throughput", Metric::F64(planned_degraded.throughput)));
    metrics.push(("omniscient_throughput", Metric::F64(omniscient.throughput)));
    metrics.push(("static_throughput", Metric::F64(blind.throughput)));

    chk(checks, "raid/conservation", roracle::check_conservation(&planned, w));
    chk(checks, "raid/block-map", roracle::check_block_map_partition(&planned, w));

    // Estimates cannot beat the truth: the planned write never exceeds the
    // omniscient scenario-3 controller (tiny slack for tie-breaks).
    chk_bool(
        checks,
        "plane/not-above-omniscient",
        planned.throughput <= omniscient.throughput * 1.02,
        format!(
            "planned {:.6e} B/s above omniscient {:.6e} B/s",
            planned.throughput, omniscient.throughput
        ),
    );
    // With a healthy carrier the plane recovers ≥90% of omniscient: the
    // acceptance bar for scenario 3bis.
    if sc.injector_label == "no-fault" {
        chk_bool(
            checks,
            "plane/fresh-competitive",
            planned.throughput >= 0.9 * omniscient.throughput,
            format!(
                "planned {:.6e} B/s under 90% of omniscient {:.6e} B/s",
                planned.throughput, omniscient.throughput
            ),
        );
    }
    // Metamorphic: slowing the plane's carrier never improves the consumer.
    chk_plane(
        checks,
        "plane/degraded-never-helps",
        &poracle::check_plane_degraded(planned.throughput, planned_degraded.throughput, 0.05),
    );

    // Gossip oracles. Convergence is only promised when no carrier link is
    // permanently dead within the horizon.
    if let Some(slack) = poracle::link_slack(&spec.link_profiles, plane_horizon) {
        let allowance = poracle::convergence_allowance(&fresh, slack);
        chk_plane(checks, "plane/convergence", &poracle::check_convergence(&fresh, allowance));
    }
    chk_plane(checks, "plane/no-false-fail-stop", &poracle::check_no_false_failstop(&fresh));
    chk_plane(checks, "plane/monotone-staleness", &poracle::check_monotone(&fresh));
}

/// The metastable cell: a closed-loop client population (13k clients,
/// ~0.65 utilisation, naive 3-attempt exponential-backoff retries)
/// against a bounded queue whose capacity runs under the scenario's
/// injector, *windowed* into a transient trigger — the run's [60 s, 90 s)
/// replays the injector's first 3 000 s of component life at 100×
/// compression, and any fail-stop becomes a zero-capacity segment that
/// ends with the window.
///
/// Three variants per cell: unmitigated, depth/age load shedding, and a
/// windowed circuit breaker. The sustaining-effect oracles then check
/// that collapse only ever outlives the trigger where the fluid model
/// predicts it can, and that both mitigations restore the stable regime
/// within the recovery deadline.
fn run_metastable(
    profile: &SlowdownProfile,
    rng: &Stream,
    metrics: &mut Vec<(&'static str, Metric)>,
    checks: &mut Vec<CheckResult>,
) {
    let mcfg = metastable::engine::Config::campaign();
    let params = moracle::OracleParams::default();
    let trigger =
        trigger_window(profile, SimTime::from_secs(60), SimDuration::from_secs(30), 100.0);

    let variant = |mit: Mitigation, stream: &str| {
        let mut vrng = rng.derive(stream);
        let tr = metastable::engine::run(&mcfg, &trigger, mit, &mut vrng);
        let a = moracle::assess(&mcfg, &tr, &params);
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

    chk(checks, "meta/conservation", moracle::check_conservation(&mcfg, &un_tr));
    chk(checks, "meta/conservation", moracle::check_conservation(&mcfg, &sh_tr));
    chk(checks, "meta/conservation", moracle::check_conservation(&mcfg, &br_tr));
    chk(checks, "meta/capacity", moracle::check_capacity(&un_tr));
    chk(checks, "meta/capacity", moracle::check_capacity(&sh_tr));
    chk(checks, "meta/capacity", moracle::check_capacity(&br_tr));
    chk(checks, "meta/no-trigger-stable", moracle::check_no_trigger_stable(&un_a));
    chk(checks, "meta/prediction", moracle::check_prediction(&un_a));
    chk(checks, "meta/shed-recovers", moracle::check_mitigation_recovers(&sh_a, &params));
    chk(checks, "meta/breaker-recovers", moracle::check_mitigation_recovers(&br_a, &params));
    chk(checks, "meta/shed-breaks-loop", moracle::check_mitigation_effective(&un_a, &sh_a));
    chk(checks, "meta/breaker-breaks-loop", moracle::check_mitigation_effective(&un_a, &br_a));
}
