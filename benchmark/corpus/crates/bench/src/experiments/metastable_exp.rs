//! Experiment E36: metastable failure — ignition/recovery hysteresis.
//!
//! The paper's fail-stutter components can do more than slow a RAID
//! stripe: a *transient* stutter in front of a timeout-and-retry client
//! population can ignite a feedback loop (retries amplify demand, orphan
//! work burns capacity) that keeps goodput collapsed long after the
//! stutter is gone. This experiment maps the hysteresis of that loop:
//!
//! - **A — ladder.** Sweep offered load ρ and probe each rung twice:
//!   does a 30 s moderate dip *ignite* sustained collapse, and does a
//!   system that *starts* collapsed (synchronized burst) claw its way
//!   back? The gap between the two boundaries is the metastable band —
//!   loads that never ignite from this trigger but cannot self-recover
//!   once tipped.
//! - **B — trigger depth × retry policy.** At the campaign load, which
//!   (dip depth, retry policy) pairs ignite? Retry budgets are
//!   themselves a mitigation: they cap demand amplification.
//! - **C — mitigation.** Full outage, naive retries: load shedding, a
//!   circuit breaker, and predictor-armed shedding against the
//!   unmitigated collapse.

use metastable::engine::{run, Config, RunTrace};
use metastable::oracle::{self, Assessment, OracleParams, Regime};
use metastable::policy::{BreakerConfig, Mitigation, ShedConfig};
use simcore::prelude::*;
use stutter::injector::SlowdownProfile;
use stutter::predict::PredictorConfig;

use crate::report::{Finding, Report, Table};

/// Clients per percent of offered load: ρ = N / (think × service_rate).
const CLIENTS_PER_PCT: u64 = 200;

/// Capacity dips to `depth` over the trigger window [60 s, 90 s).
fn dip(depth: f64) -> SlowdownProfile {
    SlowdownProfile::from_breakpoints(vec![
        (SimTime::ZERO, 1.0),
        (SimTime::from_secs(60), depth),
        (SimTime::from_secs(90), 1.0),
    ])
}

fn config_at(rho_pct: u64) -> Config {
    Config { population: rho_pct * CLIENTS_PER_PCT, ..Config::campaign() }
}

fn assess_run(cfg: &Config, trigger: &SlowdownProfile, mit: Mitigation) -> (RunTrace, Assessment) {
    let trace = run(cfg, trigger, mit, &mut Stream::from_seed(36));
    let a = oracle::assess(cfg, &trace, &OracleParams::default());
    (trace, a)
}

/// Mean goodput over the final 30 s reaches half the stable closed-loop
/// rate `N / think` — the burst probe's "self-recovered" verdict.
fn self_recovers(cfg: &Config, trace: &RunTrace) -> bool {
    let per_sec = trace.goodput_per_sec();
    let tail: u64 = per_sec.iter().rev().take(30).sum();
    let stable = cfg.population as f64 / cfg.think.as_secs_f64();
    tail as f64 / 30.0 >= 0.5 * stable
}

fn shed() -> Mitigation {
    Mitigation::Shed(ShedConfig { max_depth: 1_000, drop_expired: true })
}

fn breaker() -> Mitigation {
    Mitigation::Breaker(BreakerConfig {
        window_ticks: 100,
        open_threshold: 0.5,
        half_open_threshold: 0.1,
        min_failures: 50,
        min_failures_half: 20,
        probe_per_tick: 2,
        half_open_per_tick: 50,
    })
}

fn predictive() -> Mitigation {
    Mitigation::PredictiveShed {
        shed: ShedConfig { max_depth: 1_000, drop_expired: true },
        predictor: PredictorConfig {
            window: SimDuration::from_secs(5),
            min_samples: 8,
            level_threshold: 0.9,
            slope_threshold: 0.0,
            consecutive_below: 3,
        },
        // Armed while the fitted capacity level sits at or below 50%;
        // decline 0.0 keeps it armed across the flat bottom of an
        // outage and disarms it as soon as capacity trends back up.
        level: 0.5,
        decline: 0.0,
    }
}

fn regime_cell(a: &Assessment) -> String {
    match a.regime {
        Regime::Stable => "stable".to_string(),
        Regime::Vulnerable => "vulnerable".to_string(),
        Regime::Metastable => format!("METASTABLE ({} s)", a.collapsed_secs_post),
    }
}

/// E36 — ignition/recovery hysteresis of the retry feedback loop.
pub fn e36_metastable() -> Report {
    let mut report = Report::new();
    let params = OracleParams::default();
    let deadline = params.recovery_deadline.as_secs_f64() as u64;

    // A — the hysteresis ladder.
    let mut ladder = Table::new(
        "Hysteresis ladder: offered load vs (a) ignition by a 30 s dip to 70% capacity and \
         (b) self-recovery from a synchronized burst start",
        &["rho", "clients", "fluid: vulnerable", "dip ignites", "burst self-recovers"],
    );
    let mut rho_ign = None; // lowest rung the moderate dip tips over
    let mut rho_stuck = None; // lowest rung a collapsed start cannot escape
    let mut rho_fluid = None; // lowest rung the fluid model calls vulnerable
    for rho_pct in (40..=95).step_by(5) {
        let cfg = config_at(rho_pct);
        let vulnerable = oracle::predict_vulnerable(&cfg);
        let (_, dip_a) = assess_run(&cfg, &dip(0.7), Mitigation::None);
        let ignites = dip_a.regime == Regime::Metastable;
        let burst_cfg = Config { initial_burst: true, ..cfg };
        let (burst_tr, _) = assess_run(&burst_cfg, &SlowdownProfile::nominal(), Mitigation::None);
        let recovers = self_recovers(&burst_cfg, &burst_tr);
        if vulnerable && rho_fluid.is_none() {
            rho_fluid = Some(rho_pct);
        }
        if ignites && rho_ign.is_none() {
            rho_ign = Some(rho_pct);
        }
        if !recovers && rho_stuck.is_none() {
            rho_stuck = Some(rho_pct);
        }
        ladder.row(vec![
            format!("{:.2}", rho_pct as f64 / 100.0),
            format!("{}", cfg.population),
            if vulnerable { "yes" } else { "no" }.to_string(),
            if ignites { "IGNITES" } else { "no" }.to_string(),
            if recovers { "yes" } else { "STUCK" }.to_string(),
        ]);
    }
    report.tables.push(ladder);

    // B — trigger depth × retry policy at the campaign load (rho = 0.65).
    let naive = Config::campaign();
    let no_retry = Config {
        policy: metastable::client::RetryPolicy { max_attempts: 1, ..naive.policy },
        ..naive
    };
    let budgeted = Config {
        budget: Some(metastable::client::BudgetConfig { floor: 10.0, ratio: 0.1 }),
        ..naive
    };
    let mut matrix = Table::new(
        "Ignition at rho = 0.65: trigger depth (30 s dip) x retry policy",
        &["dip to", "no retries", "naive 3 attempts", "budgeted 3 attempts (10%)"],
    );
    let mut naive_full_ignites = false;
    let mut safe_policies_ignite = false;
    for depth_pct in [0u64, 25, 50] {
        let trigger = dip(depth_pct as f64 / 100.0);
        let mut cells = vec![format!("{depth_pct}%")];
        for (cfg, is_naive) in [(&no_retry, false), (&naive, true), (&budgeted, false)] {
            let (_, a) = assess_run(cfg, &trigger, Mitigation::None);
            let meta = a.regime == Regime::Metastable;
            if is_naive && depth_pct == 0 {
                naive_full_ignites = meta;
            }
            if !is_naive && meta {
                safe_policies_ignite = true;
            }
            cells.push(regime_cell(&a));
        }
        matrix.row(cells);
    }
    report.tables.push(matrix);

    // C — mitigation policies against the full-outage collapse.
    let outage = dip(0.0);
    let mut mitig = Table::new(
        "Mitigation at rho = 0.65, 30 s full outage, naive retries",
        &["mitigation", "regime", "recovery after trigger", "total goodput"],
    );
    let mut worst_recovery = 0u64;
    let mut unmit_collapsed = 0u64;
    let mut unmit_goodput = 0u64;
    let mut best_goodput = 0u64;
    for mit in [Mitigation::None, shed(), breaker(), predictive()] {
        let label = mit.label();
        let (trace, a) = assess_run(&naive, &outage, mit);
        let recovery = a.recovery_secs;
        if label == "none" {
            unmit_collapsed = a.collapsed_secs_post;
            unmit_goodput = trace.total_goodput();
        } else {
            worst_recovery = worst_recovery.max(recovery.unwrap_or(u64::MAX));
            best_goodput = best_goodput.max(trace.total_goodput());
        }
        mitig.row(vec![
            label.to_string(),
            regime_cell(&a),
            recovery.map_or("never".to_string(), |s| format!("{s} s")),
            format!("{}", trace.total_goodput()),
        ]);
    }
    report.tables.push(mitig);

    let ign = rho_ign.unwrap_or(u64::MAX);
    let stuck = rho_stuck.unwrap_or(u64::MAX);
    let fluid = rho_fluid.unwrap_or(u64::MAX);
    report.findings.push(Finding::new(
        "ignition/recovery hysteresis exists",
        "a band of loads cannot ignite from the moderate trigger yet cannot self-recover \
         once collapsed (metastable band)",
        format!(
            "dip ignites at rho >= {:.2}; burst stays stuck at rho >= {:.2}",
            ign as f64 / 100.0,
            stuck as f64 / 100.0
        ),
        stuck < ign,
    ));
    report.findings.push(Finding::new(
        "fluid model locates the sustain boundary",
        "the closed-form collapsed-demand condition predicts the self-recovery boundary \
         within one ladder step (0.05)",
        format!(
            "fluid vulnerable at rho >= {:.2}; observed stuck at rho >= {:.2}",
            fluid as f64 / 100.0,
            stuck as f64 / 100.0
        ),
        fluid.abs_diff(stuck) <= 5,
    ));
    report.findings.push(Finding::new(
        "retry budget prevents ignition",
        "naive retries sustain collapse after a full outage; capped (budgeted) and \
         no-retry policies never do",
        format!(
            "naive metastable: {naive_full_ignites}; any safe policy metastable: \
             {safe_policies_ignite}"
        ),
        naive_full_ignites && !safe_policies_ignite,
    ));
    report.findings.push(Finding::new(
        "every mitigation breaks the sustaining loop",
        "shedding, the circuit breaker, and predictor-armed shedding all restore the \
         stable regime within the recovery deadline; unmitigated collapse outlives the \
         trigger by 10x",
        format!(
            "unmitigated collapsed {unmit_collapsed} s (goodput {unmit_goodput}); worst \
             mitigated recovery {worst_recovery} s (best goodput {best_goodput})"
        ),
        worst_recovery <= deadline && unmit_collapsed >= 300,
    ));

    report
}
