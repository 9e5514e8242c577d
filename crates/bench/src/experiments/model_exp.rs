//! Experiments E20, E21, E24, E25: the fault-model mechanics of §3.1,
//! the reliability claim of §3.3, and the Shasha–Turek baseline of §4.

use adapt::prelude::*;
use simcore::prelude::*;
use simcore::resource::RateProfile;
use stutter::prelude::*;

use crate::report::{pct, ratio, Finding, Report, Table};

/// E20 — the threshold `T`: trading false absolute-failure verdicts
/// against detection latency.
pub fn e20_threshold() -> Report {
    let mut report = Report::new();
    // A population of working-but-stuttering components: per-request
    // latency is log-normal with a heavy tail (median 10 ms), so a small
    // T misclassifies healthy stutter as absolute failure. Each component
    // feeds its latencies to one threshold detector per T.
    const T_SECS: [f64; 6] = [0.05, 0.1, 0.5, 1.0, 5.0, 30.0];
    let lat_dist = LogNormal::with_median(0.010, 1.2);
    let rng = Stream::from_seed(53);
    let components = 200;
    let mut failed = [0u32; T_SECS.len()];
    for c in 0..components {
        let mut r = rng.derive(&format!("c{c}"));
        let detector =
            |t| ThresholdDetector::new(SimDuration::from_millis(10), SimDuration::from_secs_f64(t));
        let mut detectors = T_SECS.map(detector);
        for _ in 0..500 {
            let latency = SimDuration::from_secs_f64(lat_dist.sample(&mut r));
            detectors.iter_mut().for_each(|d| _ = d.observe(latency));
        }
        for (n, d) in failed.iter_mut().zip(&detectors) {
            *n += u32::from(d.state() == HealthState::Failed);
        }
    }

    let mut table = Table::new(
        "Threshold T: false absolute-failure rate vs failure-detection latency",
        &["T", "false-failure rate", "detection latency of a true fail-stop"],
    );
    let rates: Vec<f64> = failed.iter().map(|&n| f64::from(n) / f64::from(components)).collect();
    for (&t_secs, &rate) in T_SECS.iter().zip(&rates) {
        table.row(vec![format!("{t_secs} s"), pct(rate), format!("{t_secs} s")]);
    }
    report.tables.push(table);
    let monotone = rates.windows(2).all(|w| w[1] <= w[0]);
    report.findings.push(Finding::new(
        "T trades misclassification against detection delay",
        "a performance fault can become blurred with a correctness fault; the model may \
         include a performance threshold within the definition of a correctness fault (Section 3.1)",
        format!(
            "false-failure rate falls {} -> {} as T grows 50 ms -> 30 s, while detection \
             latency rises in lockstep",
            pct(rates[0]),
            pct(*rates.last().expect("non-empty"))
        ),
        monotone && rates[0] > 0.3 && *rates.last().expect("non-empty") < 0.02,
    ));
    report
}

/// E21 — spec fidelity: simpler specifications flag more "faults".
pub fn e21_spec_fidelity() -> Report {
    let mut report = Report::new();
    // Observations: a zoned disk legitimately delivering each of its 8
    // zone rates (5.5 down to 2.75 MB/s), plus one genuinely broken disk
    // at 1.0 MB/s.
    let geometry = blockdev::geometry::Geometry::hawk_5400();
    let mut observations: Vec<f64> = (0..geometry.zones).map(|z| geometry.zone_rate(z)).collect();
    observations.push(1.0e6); // genuinely faulty

    let specs: Vec<(&str, PerfSpec)> = vec![
        ("constant 5.5 MB/s (naive)", PerfSpec::constant(5.5e6)),
        ("distribution mean 4.1, cv 0.1", PerfSpec::distribution(4.125e6, 0.1, 2.0)),
        ("envelope [2.75, 5.5] (faithful)", PerfSpec::envelope(2.75e6, 5.5e6)),
    ];
    let mut table = Table::new(
        "Observations flagged as performance faults, by spec fidelity",
        &["spec", "flagged", "of which legitimate zone rates"],
    );
    let mut flagged_counts = Vec::new();
    let mut legit_flagged = Vec::new();
    for (name, spec) in &specs {
        let flagged = observations.iter().filter(|&&o| !spec.is_within(o)).count();
        let legit =
            observations[..geometry.zones as usize].iter().filter(|&&o| !spec.is_within(o)).count();
        flagged_counts.push(flagged);
        legit_flagged.push(legit);
        table.row(vec![name.to_string(), flagged.to_string(), legit.to_string()]);
    }
    report.tables.push(table);
    report.findings.push(Finding::new(
        "fidelity vs flagged faults",
        "the simpler the model, the more likely performance faults occur (Section 3.1)",
        format!(
            "naive spec flags {} legitimate rates, faithful envelope flags {}; all specs \
             still catch the broken disk",
            legit_flagged[0], legit_flagged[2]
        ),
        legit_flagged[0] > legit_flagged[1]
            && legit_flagged[1] > legit_flagged[2]
            && legit_flagged[2] == 0
            && flagged_counts[2] == 1,
    ));
    report
}

/// E24 — §3.3 reliability: erratic performance predicts impending failure.
pub fn e24_failure_prediction() -> Report {
    let mut report = Report::new();
    let horizon = SimDuration::from_secs(7_200);
    let config = PredictorConfig {
        window: SimDuration::from_secs(600),
        min_samples: 8,
        level_threshold: 0.9,
        slope_threshold: 0.05,
        consecutive_below: 4,
    };
    let rng = Stream::from_seed(59);

    let mut predicted_of_failing = 0;
    let mut lead_times = Vec::new();
    let mut false_alarms = 0;
    let per_class = 20;

    // Class 1: wearing out toward failure.
    for i in 0..per_class {
        let onset = SimTime::from_secs(1_000 + 100 * i as u64);
        let inj = Injector::Wearout {
            onset,
            ramp: SimDuration::from_secs(2_000),
            floor: 0.3,
            fail_after: Some(SimDuration::from_secs(300)),
        };
        let profile = inj.timeline(horizon, &mut rng.derive(&format!("w{i}")));
        let fail_at = profile.fail_at().expect("wearout fails");
        let mut predictor = FailurePredictor::new(config);
        let mut t = SimTime::ZERO;
        while t < fail_at {
            predictor.observe(t, profile.multiplier_at(t));
            t += SimDuration::from_secs(30);
        }
        if let Some(lead) = predictor.lead_time(fail_at) {
            predicted_of_failing += 1;
            lead_times.push(lead.as_secs_f64());
        }
    }

    // Class 2: healthy; class 3: steadily slow (performance-faulty but
    // not dying). Neither must trigger predictions.
    for i in 0..per_class {
        for (label, factor) in [("healthy", 1.0), ("steady-slow", 0.6)] {
            let profile = if factor < 1.0 {
                Injector::StaticSlowdown { factor }
                    .timeline(horizon, &mut rng.derive(&format!("{label}{i}")))
            } else {
                SlowdownProfile::nominal()
            };
            let mut predictor = FailurePredictor::new(config);
            let mut t = SimTime::ZERO;
            while t < SimTime::ZERO + horizon {
                if predictor.observe(t, profile.multiplier_at(t)).is_some() {
                    false_alarms += 1;
                    break;
                }
                t += SimDuration::from_secs(30);
            }
        }
    }

    let recall = predicted_of_failing as f64 / per_class as f64;
    let fa_rate = false_alarms as f64 / (2 * per_class) as f64;
    let mean_lead = if lead_times.is_empty() {
        0.0
    } else {
        lead_times.iter().sum::<f64>() / lead_times.len() as f64
    };

    let mut table = Table::new(
        "Stutter-based failure prediction over 60 disks (20 wearing out, 20 healthy, 20 steady-slow)",
        &["recall on wear-out", "false-alarm rate", "mean warning lead time"],
    );
    table.row(vec![pct(recall), pct(fa_rate), format!("{:.0} s", mean_lead)]);
    report.tables.push(table);
    report.findings.push(Finding::new(
        "erratic performance as an early failure indicator",
        "erratic performance may be an early indicator of impending failure (Section 3.3)",
        format!("recall {}, false alarms {}, lead {:.0} s", pct(recall), pct(fa_rate), mean_lead),
        recall >= 0.9 && fa_rate <= 0.05 && mean_lead > 300.0,
    ));
    report
}

/// E25 — Shasha–Turek duplicate issue vs blocking under slow-down failures.
pub fn e25_hedging() -> Report {
    let mut report = Report::new();
    // Sixteen workers, one catastrophically slowed (2% speed).
    let mut speeds = [1.0; 16];
    speeds[7] = 0.02;
    let rates: Vec<RateProfile> = speeds.iter().map(|&s| RateProfile::constant(s)).collect();

    let blocking = run_hedged(&rates, 64, 1.0, HedgeConfig { hedge_after: None }, SimTime::ZERO)
        .expect("all workers alive");
    let hedged = run_hedged(
        &rates,
        64,
        1.0,
        HedgeConfig { hedge_after: Some(SimDuration::from_secs(2)) },
        SimTime::ZERO,
    )
    .expect("all workers alive");

    let mut table = Table::new(
        "64 tasks over 16 workers, one at 2% speed: blocking vs duplicate issue",
        &["strategy", "worst task latency", "makespan", "work wasted", "reconciled commits"],
    );
    table.row(vec![
        "blocking (fail-stop thinking)".into(),
        format!("{:.1} s", blocking.worst_latency().as_secs_f64()),
        format!("{:.1} s", blocking.makespan.as_secs_f64()),
        pct(blocking.work_wasted / blocking.work_spent.max(1e-9)),
        blocking.reconciled.to_string(),
    ]);
    table.row(vec![
        "hedged at 2 s (Shasha-Turek)".into(),
        format!("{:.1} s", hedged.worst_latency().as_secs_f64()),
        format!("{:.1} s", hedged.makespan.as_secs_f64()),
        pct(hedged.work_wasted / hedged.work_spent.max(1e-9)),
        hedged.reconciled.to_string(),
    ]);
    report.tables.push(table);

    let tail_gain = blocking.worst_latency().as_secs_f64() / hedged.worst_latency().as_secs_f64();
    report.findings.push(Finding::new(
        "duplicate issue bounds the tail",
        "issuing new processes to do the work elsewhere, and reconciling properly so as to \
         avoid work replication (Section 4)",
        format!(
            "worst latency {} better; waste {} of total work; {} duplicate commits reconciled",
            ratio(tail_gain),
            pct(hedged.work_wasted / hedged.work_spent.max(1e-9)),
            hedged.reconciled
        ),
        tail_gain > 10.0 && hedged.work_wasted < 0.3 * hedged.work_spent && hedged.reconciled > 0,
    ));

    // The original domain: transactions under a slowed processor. A 2PL
    // executor convoys behind the slow lock holder; the wait-free executor
    // re-issues and reconciles.
    let mut speeds = vec![1.0; 8];
    speeds[1] = 0.01;
    let txns: Vec<Txn> =
        (0..24).map(|i| Txn { items: vec![i % 3], work: SimDuration::from_millis(10) }).collect();
    let blocking_txn = run_transactions(&txns, &speeds, Executor::Blocking);
    let wait_free_txn = run_transactions(
        &txns,
        &speeds,
        Executor::WaitFree { patience: SimDuration::from_millis(50) },
    );
    let mut t2 = Table::new(
        "24 conflicting transactions over 8 processors, one at 1% speed",
        &["executor", "makespan", "worst commit latency", "duplicates aborted"],
    );
    for (name, out) in
        [("blocking 2PL", &blocking_txn), ("wait-free (Shasha-Turek)", &wait_free_txn)]
    {
        t2.row(vec![
            name.into(),
            format!("{:.2} s", out.makespan.as_secs_f64()),
            format!("{:.2} s", out.worst_latency().as_secs_f64()),
            out.aborted_duplicates.to_string(),
        ]);
    }
    report.tables.push(t2);
    let txn_gain = blocking_txn.makespan.as_secs_f64() / wait_free_txn.makespan.as_secs_f64();
    report.findings.push(Finding::new(
        "wait-free serializability avoids the lock convoy",
        "runs transactions correctly in the presence of slow-down failures (Section 4)",
        format!(
            "{} makespan improvement; {} duplicate copies reconciled away",
            ratio(txn_gain),
            wait_free_txn.aborted_duplicates
        ),
        txn_gain > 5.0 && wait_free_txn.aborted_duplicates > 0,
    ));
    report
}
