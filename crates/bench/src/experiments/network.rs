//! Experiments E09–E11: the §2.1.3 network phenomena.

use netsim::prelude::*;
use netsim::transpose::{FABRIC_BUFFER, NODES};
use simcore::prelude::*;

use crate::report::{pct, ratio, Finding, Report, Table};

/// E09 — Myrinet deadlock: a throughput cliff at the watchdog threshold.
pub fn e09_deadlock() -> Report {
    let mut report = Report::new();
    let mut table = Table::new(
        "Message goodput vs inter-packet gap (50 ms watchdog, 2 s recovery halt)",
        &["gap (ms)", "time for 50-packet message", "deadlocks"],
    );
    let mut below_cliff = 0.0f64;
    let mut above_cliff = 0.0f64;
    for &gap_ms in &[0u64, 10, 25, 40, 49, 50, 60, 100] {
        let mut fabric = WormholeFabric::new(100e6);
        let out = fabric.send_message(SimTime::ZERO, 50, 10_000, SimDuration::from_millis(gap_ms));
        let secs = (out.finished - SimTime::ZERO).as_secs_f64();
        if gap_ms == 49 {
            below_cliff = secs;
        }
        if gap_ms == 50 {
            above_cliff = secs;
        }
        table.row(vec![
            gap_ms.to_string(),
            format!("{secs:.2} s"),
            out.deadlocks_triggered.to_string(),
        ]);
    }
    report.tables.push(table);
    let cliff = above_cliff / below_cliff;
    report.findings.push(Finding::new(
        "cliff at the watchdog threshold",
        "waiting too long between packets triggers deadlock recovery, halting all switch \
         traffic for two seconds",
        format!("{} slowdown crossing 49->50 ms", ratio(cliff)),
        cliff > 10.0,
    ));

    // Innocent-bystander check: traffic during a recovery stalls.
    let mut fabric = WormholeFabric::new(100e6);
    fabric.send_message(SimTime::ZERO, 2, 1_000, SimDuration::from_millis(60));
    let innocent = fabric.send_message(SimTime::from_millis(100), 1, 1_000, SimDuration::ZERO);
    report.findings.push(Finding::new(
        "recovery halts innocent traffic",
        "halting all switch traffic",
        format!("innocent message finished at {}", innocent.finished),
        innocent.finished > SimTime::from_secs(2),
    ));
    report
}

/// E10 — switch unfairness under load.
pub fn e10_unfairness() -> Report {
    let mut report = Report::new();
    let mut table = Table::new(
        "Delivered bytes per input under fair vs priority arbitration (2 inputs -> 1 output)",
        &["load", "arbitration", "input 0", "input 1", "imbalance"],
    );
    let mut unfair_high = 0.0f64;
    let mut fair_high = 0.0f64;
    let mut unfair_low = 0.0f64;
    for &(label, period_ms, overload) in &[("20%", 100u64, false), ("200%", 10u64, true)] {
        for arb in [Arbitration::Fair, Arbitration::Priority] {
            let mut sw = Switch::new(2, 1, 1e6, arb);
            for i in 0..100u64 {
                for input in 0..2 {
                    sw.enqueue(Packet {
                        at: SimTime::from_millis(i * period_ms),
                        input,
                        output: 0,
                        bytes: 10_000,
                    });
                }
            }
            sw.drain_until(SimTime::from_secs(1));
            let by_input = sw.delivered_bytes_by_input();
            let imbalance = by_input[0] as f64 / by_input[1].max(1) as f64;
            match (arb, overload) {
                (Arbitration::Priority, true) => unfair_high = imbalance,
                (Arbitration::Fair, true) => fair_high = imbalance,
                (Arbitration::Priority, false) => unfair_low = imbalance,
                _ => {}
            }
            table.row(vec![
                label.into(),
                format!("{arb:?}"),
                by_input[0].to_string(),
                by_input[1].to_string(),
                ratio(imbalance),
            ]);
        }
    }
    report.tables.push(table);
    report.findings.push(Finding::new(
        "unfairness appears only under load",
        "if enough load is placed on the switch, certain routes receive preference; \
         disfavored links appear slower even though fully capable",
        format!(
            "light-load imbalance {}, high-load priority imbalance {}, fair {}",
            ratio(unfair_low),
            ratio(unfair_high),
            ratio(fair_high)
        ),
        (unfair_low - 1.0).abs() < 0.05 && unfair_high > 3.0 && (fair_high - 1.0).abs() < 0.15,
    ));

    // The downstream consequence the thesis measured: a *global adaptive
    // data transfer* over the same port is materially slower when the
    // arbitration is unfair, because the controller collapses the
    // disfavoured route and pays timeouts plus a cold restart.
    let fair_t = run_adaptive_transfer(PortArbitration::Fair);
    let unfair_t = run_adaptive_transfer(PortArbitration::Priority);
    let slowdown = unfair_t.elapsed.as_secs_f64() / fair_t.elapsed.as_secs_f64();
    let mut t2 = Table::new(
        "Global adaptive transfer (2 GB over 2 routes, AIMD per route)",
        &["arbitration", "elapsed", "route finishes"],
    );
    for (name, out) in [("fair", &fair_t), ("priority", &unfair_t)] {
        t2.row(vec![
            name.into(),
            format!("{:.1} s", out.elapsed.as_secs_f64()),
            out.route_finish
                .iter()
                .map(|d| format!("{:.1}s", d.as_secs_f64()))
                .collect::<Vec<_>>()
                .join(" / "),
        ]);
    }
    report.tables.push(t2);
    report.findings.push(Finding::new(
        "unfairness slows the global adaptive transfer",
        "the unfairness resulted in a 50% slowdown to a global adaptive data transfer",
        format!(
            "{} (our AIMD recovers from starvation faster than the 1999 transport, so the \
             penalty lands lower, via the same mechanism)",
            ratio(slowdown)
        ),
        (1.15..2.0).contains(&slowdown),
    ));
    report
}

/// E11 — CM-5 transpose collapse under slow receivers.
pub fn e11_transpose() -> Report {
    let mut report = Report::new();
    let healthy = healthy_baseline();
    let mut table = Table::new(
        "All-to-all transpose time vs one slow receiver (16 nodes, shared-buffer fabric)",
        &["slow receiver speed", "fluid model", "slowdown", "barrier model slowdown"],
    );
    let mut headline = 0.0f64;
    for &speed in &[1.0, 0.5, 1.0 / 3.0, 0.2] {
        let mut mult = vec![1.0; NODES];
        mult[5] = speed;
        let out = run_transpose(&mult);
        let slowdown = out.elapsed.as_secs_f64() / healthy.elapsed.as_secs_f64();
        let barrier = barrier_transpose_time(&mult).as_secs_f64()
            / barrier_transpose_time(&[1.0; NODES]).as_secs_f64();
        if (speed - 1.0 / 3.0).abs() < 1e-9 {
            headline = slowdown;
        }
        table.row(vec![
            pct(speed),
            format!("{:.2} s", out.elapsed.as_secs_f64()),
            ratio(slowdown),
            ratio(barrier),
        ]);
    }
    report.tables.push(table);
    report.findings.push(Finding::new(
        "global slowdown from a 1/3-speed receiver",
        "messages accumulate in the network and cause excessive contention, reducing \
         transpose performance by almost a factor of three",
        ratio(headline),
        (2.0..4.5).contains(&headline),
    ));

    // The congestion signature: the fabric buffer fills.
    let mut mult = vec![1.0; NODES];
    mult[5] = 0.2;
    let out = run_transpose(&mult);
    report.findings.push(Finding::new(
        "messages accumulate in the network",
        "once a receiver falls behind, messages accumulate",
        format!("peak fabric occupancy {} of {} bytes", out.peak_occupancy, FABRIC_BUFFER),
        out.peak_occupancy > FABRIC_BUFFER / 2,
    ));
    report
}
