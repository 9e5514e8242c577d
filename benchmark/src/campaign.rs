//! The two campaign workloads: `campaign-full` (all 360 cells) and
//! `campaign-plane` (the 72 `plane/*` cells), untraced and traced.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fs_bench::campaign::{
    enumerate, run_campaign, run_scenario, run_selected, CampaignConfig, CampaignReport, Kind,
    Scenario,
};
use simcore::time::SimDuration;

use crate::replay::{replay, same_metrics, Counts};
use crate::stats::{measure, Outcome};
use crate::trace::Tracer;

/// Campaign digests measured for seed 42 at the revision the benchmark
/// was defined on.
const PINNED_FULL_42: u64 = 0x4c00_fc77_701d_ad0e;
const PINNED_PLANE_42: u64 = 0xed5e_fb8f_e083_aea6;

/// Master seeds on which the standard campaign passes every oracle at
/// the revision the benchmark was defined on; `--seed s` runs master seed
/// `MASTER_SEEDS[s % 32]`. Seed 42 maps to itself (42 % 32 = 10), so it
/// runs the campaign whose digests are pinned. Master seeds 1, 3, 7, 15,
/// 24 and 27 are left out: a `meta/*` cell misses the `meta-recovery`
/// deadline under each of them.
const MASTER_SEEDS: [u64; 32] = [
    16, 17, 18, 19, 20, 21, 22, 23, 25, 26, 42, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
    41, 43, 44, 45, 46, 47, 48, 49,
];

/// Which slice of the standard campaign a workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    Full,
    Plane,
}

/// The standard campaign's values, written out so that a change to
/// `CampaignConfig::standard` cannot change the benchmark's input.
fn config(master_seed: u64) -> CampaignConfig {
    CampaignConfig {
        master_seed,
        threads: 1,
        replicates: 6,
        pairs: 4,
        nominal: 10e6,
        blocks: 16_384,
        block_bytes: 65_536,
        chunk_blocks: 64,
        items: 400,
        item_units: 1e6,
        tasks: 64,
        task_units: 10e6,
        hedge_after: SimDuration::from_secs(3),
        horizon: SimDuration::from_secs(100_000),
        monitor_window: SimDuration::from_secs(2_400),
    }
}

/// Set-up: the config and the cell list. Returns `None` when the cell
/// count is not the one the workload is defined over.
fn setup(slice: Slice, seed: u64) -> Option<(CampaignConfig, Vec<Scenario>)> {
    let cfg = config(MASTER_SEEDS[(seed % 32) as usize]);
    let mut cells = enumerate(&cfg);
    let expected = match slice {
        Slice::Full => 360,
        Slice::Plane => {
            cells.retain(|sc| sc.kind == Kind::Plane);
            72
        }
    };
    (cells.len() == expected).then_some((cfg, cells))
}

fn pinned(slice: Slice, cfg: &CampaignConfig) -> Option<u64> {
    match (slice, cfg.master_seed) {
        (Slice::Full, 42) => Some(PINNED_FULL_42),
        (Slice::Plane, 42) => Some(PINNED_PLANE_42),
        _ => None,
    }
}

/// One pass over the workload's cells, with panics contained.
fn pass(slice: Slice, cells: &[Scenario], cfg: &CampaignConfig) -> Option<CampaignReport> {
    catch_unwind(AssertUnwindSafe(|| match slice {
        Slice::Full => run_campaign(cfg),
        Slice::Plane => run_selected(cells, cfg),
    }))
    .ok()
}

/// Checks one pass: its failed cells, given the first pass's per-cell
/// digests and the pinned campaign digest.
struct Checker {
    expected_digest: Option<u64>,
    cell_digests: Option<Vec<u64>>,
}

impl Checker {
    fn failed_cells(&mut self, report: Option<&CampaignReport>, cells: usize) -> u64 {
        let Some(report) = report else { return cells as u64 };
        if report.results.len() != cells || self.expected_digest.is_some_and(|d| d != report.digest)
        {
            return cells as u64;
        }
        self.expected_digest = Some(report.digest);
        let digests = self
            .cell_digests
            .get_or_insert_with(|| report.results.iter().map(|r| r.digest).collect());
        report
            .results
            .iter()
            .zip(digests.iter())
            .filter(|(r, &d)| r.violations().next().is_some() || r.digest != d)
            .count() as u64
    }
}

/// The untraced run: see [`measure`].
pub fn run(slice: Slice, seed: u64, seconds: u64, nproc: usize) -> Outcome {
    let Some((base, cells)) = setup(slice, seed) else { return Outcome::broken() };
    let mut checker = Checker { expected_digest: pinned(slice, &base), cell_digests: None };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let metrics = measure(
        seconds,
        nproc,
        || setup(slice, seed),
        |threads| {
            let report = pass(slice, &cells, &CampaignConfig { threads, ..base.clone() });
            attempted += cells.len() as u64;
            failed += checker.failed_cells(report.as_ref(), cells.len());
            cells.len() as u64
        },
    );
    if let Some(d) = checker.expected_digest {
        println!(
            "campaign digest {d:016x}: {} cells, master seed {}",
            cells.len(),
            base.master_seed
        );
    }
    Outcome { attempted, failed, metrics }
}

/// Host time spent in `run_scenario` on cells of one kind.
#[derive(Default)]
struct KindTime {
    ns: u128,
    cells: u64,
}

/// The traced run. Each round makes an untraced pass at `nproc` threads,
/// then runs every cell alone through `run_scenario` (timed per cell),
/// then replays every cell twice, with the recorder off and on, and
/// checks that each replay rebuilt the cell's metrics exactly.
pub fn traced(slice: Slice, seed: u64, seconds: u64, nproc: usize) -> (Outcome, Tracer) {
    let t0 = Instant::now();
    let prepared = setup(slice, seed);
    let enumerate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let tracer = Tracer::new();
    let Some((base, cells)) = prepared else { return (Outcome::broken(), tracer) };
    let mut checker = Checker { expected_digest: pinned(slice, &base), cell_digests: None };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut kinds: BTreeMap<&'static str, KindTime> = BTreeMap::new();
    let (mut wall_nproc, mut wall_untraced, mut wall_traced) = (0.0, 0.0, 0.0);
    let mut counts: Option<Counts> = None;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        let cfg = CampaignConfig { threads: nproc, ..base.clone() };
        let t0 = Instant::now();
        let report = pass(slice, &cells, &cfg);
        wall_nproc += t0.elapsed().as_secs_f64();
        attempted += cells.len() as u64;
        failed += checker.failed_cells(report.as_ref(), cells.len());

        let mut results = Vec::with_capacity(cells.len());
        for sc in &cells {
            let c0 = Instant::now();
            let result = run_scenario(sc, &base);
            let k = kinds.entry(sc.kind.tag()).or_default();
            k.ns += c0.elapsed().as_nanos();
            k.cells += 1;
            results.push(result);
        }

        if let Some(digests) = &checker.cell_digests {
            let differ = results.iter().zip(digests).filter(|(r, &d)| r.digest != d).count();
            failed += differ as u64;
        }

        let mut round_counts = Counts::default();
        let mut replay_all = |t: &Tracer, counts: &mut Counts| {
            let t0 = Instant::now();
            for (sc, result) in cells.iter().zip(&results) {
                t.begin_cell(result.label.clone());
                let rebuilt = t.span("campaign.cell", || replay(sc, &base, t, counts));
                attempted += 1;
                if !same_metrics(&rebuilt, &result.metrics) {
                    eprintln!("replay of {} does not reproduce its metrics", result.label);
                    failed += 1;
                }
            }
            t0.elapsed().as_secs_f64()
        };
        // Alternate which replay goes first, so that warm-up effects
        // cancel out of `trace.overhead`.
        let (off, on) = if rounds % 2 == 1 {
            let off = replay_all(&Tracer::off(), &mut Counts::default());
            (off, replay_all(&tracer, &mut round_counts))
        } else {
            let on = replay_all(&tracer, &mut round_counts);
            (replay_all(&Tracer::off(), &mut Counts::default()), on)
        };
        eprintln!("round {rounds}: replay {off:.6} s untraced, {on:.6} s traced");
        wall_untraced += off;
        wall_traced += on;
        if *counts.get_or_insert(round_counts) != round_counts {
            eprintln!("simulated work counts differ between rounds");
            failed += 1;
        }
    }

    let agg = tracer.aggregate();
    let a = |name: &str| agg.get(name).copied().unwrap_or_default();
    let counts = counts.unwrap_or_default();
    let cell_ns: u128 = kinds.values().map(|k| k.ns).sum();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for kind in Kind::all() {
        let k = kinds.get(kind.tag());
        let ms = k.map_or(0.0, |k| k.ns as f64 / 1e6 / k.cells as f64);
        let name = match kind {
            Kind::Metastable => "campaign.cell_ms.meta",
            Kind::Plane => "campaign.cell_ms.plane",
            Kind::Raid => "campaign.cell_ms.raid",
            Kind::Queue => "campaign.cell_ms.queue",
            Kind::Hedge => "campaign.cell_ms.hedge",
        };
        m.insert(name, ms);
    }
    let share = |tag: &str| kinds.get(tag).map_or(0.0, |k| k.ns as f64 / cell_ns as f64);
    m.insert("campaign.share.meta", share("meta"));
    m.insert("campaign.share.plane", share("plane"));
    m.insert("campaign.share.other", 1.0 - share("meta") - share("plane"));
    m.insert("campaign.parallel_eff", cell_ns as f64 / 1e9 / (nproc as f64 * wall_nproc));
    m.insert("campaign.enumerate_ms", enumerate_ms);

    let run = a("metastable.run");
    m.insert("metastable.run_ms", run.mean(1e6));
    m.insert("metastable.ns_per_tick", ratio(run.self_ns, counts.meta_ticks * rounds));
    m.insert("metastable.assess_us", a("metastable.assess").mean(1e3));
    m.insert("metastable.trigger_window_us", a("metastable.trigger_window").mean(1e3));
    m.insert("metastable.attempts", counts.meta_attempts as f64);
    m.insert("metastable.goodput_ratio", ratio(counts.meta_served_live, counts.meta_attempts));

    let plane = a("perfplane.run_plane");
    m.insert("perfplane.run_plane_ms", plane.mean(1e6));
    m.insert("perfplane.delivered", counts.plane_delivered as f64);
    m.insert(
        "perfplane.us_per_delivery",
        ratio(plane.self_ns, counts.plane_delivered * rounds) / 1e3,
    );
    m.insert("perfplane.merge_ratio", ratio(counts.plane_merges, counts.plane_delivered));
    m.insert("perfplane.pushes_dropped", counts.plane_pushes_dropped as f64);
    m.insert("perfplane.oracle_us", a("perfplane.oracle").mean(1e3));
    let est = a("perfplane.estimated_rate");
    m.insert("perfplane.estimated_rate_calls", (est.calls / rounds) as f64);
    m.insert("perfplane.estimated_rate_ns", est.mean(1.0));

    for (metric, span) in [
        ("raidsim.write_us.static", "raidsim.write.static"),
        ("raidsim.write_us.proportional", "raidsim.write.proportional"),
        ("raidsim.write_us.adaptive", "raidsim.write.adaptive"),
        ("raidsim.write_us.estimated", "raidsim.write.estimated"),
        ("raidsim.oracle_us", "raidsim.oracle"),
        ("stutter.timeline_us", "stutter.timeline"),
        ("stutter.detect_us", "stutter.detect"),
        ("adapt.distribute_us.push", "adapt.distribute.push"),
        ("adapt.distribute_us.pull", "adapt.distribute.pull"),
        ("adapt.run_hedged_us", "adapt.run_hedged"),
    ] {
        m.insert(metric, a(span).mean(1e3));
    }
    m.insert("stutter.timeline_calls", (a("stutter.timeline").calls / rounds) as f64);
    m.insert("trace.overhead", wall_traced / wall_untraced - 1.0);

    println!(
        "traced {rounds} round(s) of {} cells: {} replayed, {} failed",
        cells.len(),
        cells.len() as u64 * rounds,
        failed
    );
    (Outcome { attempted, failed, metrics: m }, tracer)
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
