//! Experiment E35: event-engine throughput — the calendar queue against
//! the binary-heap reference oracle.
//!
//! The fail-stutter argument only bites at fleet scale, and fleet scale
//! is bounded by simulated events per wall-second. This experiment sweeps
//! the two [`simcore::queue`] implementations over the workloads the
//! criterion benches also run — a ring of periodic timers (large
//! same-timestamp batches), gossip-mesh churn (spread timestamps), a
//! heavy-cancel program — plus raw queue-level key throughput, and pins
//! two shapes:
//!
//! 1. **Invariance**: both queues dispatch the *identical* event order on
//!    a logged churn program (the cheap in-experiment echo of the full
//!    differential suite in `crates/simcore/tests/differential.rs`).
//! 2. **Batched speedup**: on same-timestamp batched keys the calendar
//!    queue's O(1) bucket drain beats the heap's O(log n) sift
//!    (target ≥10×; the finding passes at a CI-noise-proof ≥3×).

use std::time::Instant;

use simcore::prelude::*;
use simcore::queue::{EventKey, QueueKind};

use crate::report::{ratio, Finding, Report, Table};

const KINDS: [QueueKind; 2] = [QueueKind::Reference, QueueKind::Calendar];

/// Wall-times `f`, returning `(events, seconds)` with a zero-guard.
fn timed(f: impl FnOnce() -> u64) -> (u64, f64) {
    let start = Instant::now();
    let events = f();
    (events, start.elapsed().as_secs_f64().max(1e-9))
}

/// A ring of identically-phased periodic timers: every millisecond tick
/// is one batch of `timers` same-timestamp events.
fn timer_ring(kind: QueueKind, timers: usize, ticks: u64) -> u64 {
    let mut sim = Simulation::with_queue_kind(0u64, kind);
    for _ in 0..timers {
        let mut fired = 0u64;
        sim.schedule_periodic(SimDuration::from_millis(1), move |count: &mut u64, _| {
            *count += 1;
            fired += 1;
            if fired < ticks {
                Some(SimDuration::from_millis(1))
            } else {
                None
            }
        });
    }
    sim.run();
    sim.events_executed()
}

/// Gossip-mesh churn: `nodes` self-rearming tasks with seeded
/// pseudo-random periods, so timestamps spread instead of batching.
fn gossip_churn(kind: QueueKind, nodes: usize, events: u64) -> u64 {
    struct Churn {
        remaining: u64,
        rng: Stream,
    }
    let st = Churn { remaining: events, rng: Stream::from_seed(35) };
    let mut sim = Simulation::with_queue_kind(st, kind);
    for n in 0..nodes {
        let first = SimDuration::from_micros(n as u64 % 97 + 1);
        sim.schedule_periodic(first, move |st: &mut Churn, _| {
            if st.remaining == 0 {
                return None;
            }
            st.remaining -= 1;
            Some(SimDuration::from_micros(st.rng.next_below(2_000) + 1))
        });
    }
    sim.run();
    sim.events_executed()
}

/// Heavy-cancel: each round schedules `n` cancellable events and cancels
/// three quarters of them before they fire.
fn heavy_cancel(kind: QueueKind, n: usize, rounds: usize) -> u64 {
    let mut sim = Simulation::with_queue_kind(0u64, kind);
    for round in 0..rounds {
        let at = SimTime::from_millis(round as u64 + 1);
        sim.schedule_at(at, move |_, ctx| {
            let mut handles = Vec::with_capacity(n);
            for i in 0..n {
                let fire = ctx.now() + SimDuration::from_micros(i as u64 % 64 + 1);
                handles.push(ctx.at_cancellable(fire, |count: &mut u64, _| *count += 1));
            }
            for (i, h) in handles.iter().enumerate() {
                if i % 4 != 0 {
                    h.cancel();
                }
            }
        });
        sim.run();
    }
    sim.events_executed()
}

/// Raw queue-level throughput: push `n` keys (`ties` keys per distinct
/// timestamp), then drain with `pop_batch`. No arena, no closures — the
/// queue data structures alone.
fn raw_keys(kind: QueueKind, n: u64, ties: u64) -> u64 {
    let mut q = kind.make();
    for seq in 0..n {
        let at = SimTime::from_micros(seq / ties);
        q.push(EventKey { at, seq, slot: seq as u32 });
    }
    let mut out = Vec::new();
    let mut popped = 0u64;
    while q.pop_batch(&mut out).is_some() {
        popped += out.len() as u64;
        out.clear();
    }
    popped
}

/// Steady-state raw ring — the headline batched workload. `r` resident
/// keys all due at one timestamp; each round drains the batch and
/// re-files `r` keys one period later, like a fleet of identically-phased
/// timers. The fill and one warm-up round run *before* timing starts, so
/// first-touch page-in noise stays out of both kinds' rates and the
/// measured region is the steady state the engine would actually sit in.
fn raw_ring(kind: QueueKind, r: u64, rounds: u64) -> (u64, f64) {
    let mut q = kind.make();
    let mut seq = 0u64;
    for _ in 0..r {
        q.push(EventKey { at: SimTime::from_nanos(1_000), seq, slot: seq as u32 });
        seq += 1;
    }
    let mut out = Vec::new();
    let mut ops = 0u64;
    let mut start = Instant::now();
    for round in 0..=rounds {
        if round == 1 {
            // Round 0 was warm-up: restart the clock and the op count.
            ops = 0;
            start = Instant::now();
        }
        let Some(t) = q.pop_batch(&mut out) else {
            break;
        };
        let next = t.as_nanos() + 1_000;
        let n = out.len() as u64;
        for _ in 0..n {
            q.push(EventKey { at: SimTime::from_nanos(next), seq, slot: seq as u32 });
            seq += 1;
        }
        ops += n;
        out.clear();
    }
    (ops, start.elapsed().as_secs_f64().max(1e-9))
}

/// Runs a small *logged* churn program under one kind: the dispatch
/// record (time, node, tick) the invariance finding compares.
fn logged_churn(kind: QueueKind) -> Vec<(u64, usize, u64)> {
    let mut sim = Simulation::with_queue_kind(Vec::new(), kind);
    for node in 0..32usize {
        let mut rng = Stream::from_seed(35).derive_index(node as u64);
        let mut tick = 0u64;
        let first = SimDuration::from_micros(node as u64 % 7);
        sim.schedule_periodic(first, move |log: &mut Vec<(u64, usize, u64)>, ctx| {
            log.push((ctx.now().as_nanos(), node, tick));
            tick += 1;
            if tick < 64 {
                // Small random periods, including 0 → same-time rearms.
                Some(SimDuration::from_micros(rng.next_below(4)))
            } else {
                None
            }
        });
    }
    sim.run();
    sim.into_state()
}

/// One sweep row: both kinds on one workload, with the speedup. `run`
/// returns `(events, seconds)` so workloads control their own timed
/// region (most wrap themselves in [`timed`]; the ring excludes warm-up).
fn sweep_row(table: &mut Table, workload: &str, run: impl Fn(QueueKind) -> (u64, f64)) -> f64 {
    let mut rates = [0.0f64; 2];
    for (i, kind) in KINDS.iter().enumerate() {
        let (events, secs) = run(*kind);
        let rate = events as f64 / secs;
        rates[i] = rate;
        table.row(vec![
            workload.to_string(),
            kind.name().to_string(),
            events.to_string(),
            format!("{:.3}", secs),
            format!("{:.2e}", rate),
        ]);
    }
    let speedup = rates[1] / rates[0].max(1e-12);
    table.row(vec![
        workload.to_string(),
        "speedup".to_string(),
        String::new(),
        String::new(),
        ratio(speedup),
    ]);
    speedup
}

/// E35 — events/sec: calendar vs reference queue across the bench
/// workloads, with the dispatch-order invariance check.
pub fn e35_engine() -> Report {
    let mut report = Report::new();

    let mut table = Table::new(
        "Event-engine throughput sweep: reference heap vs calendar queue \
         (host wall-clock; events/sec simulated-event dispatch rate)",
        &["workload", "queue", "events", "wall s", "events/sec"],
    );

    let ring = sweep_row(&mut table, "timer ring (4096 timers x 64 ticks)", |k| {
        timed(|| timer_ring(k, 4096, 64))
    });
    let churn = sweep_row(&mut table, "gossip churn (64 nodes, 200k events)", |k| {
        timed(|| gossip_churn(k, 64, 200_000))
    });
    let cancel = sweep_row(&mut table, "heavy cancel (4 x 50k, 75% cancelled)", |k| {
        timed(|| heavy_cancel(k, 50_000, 4))
    });
    let raw_burst = sweep_row(&mut table, "raw keys, burst (1M keys, 1024-way ties)", |k| {
        timed(|| raw_keys(k, 1 << 20, 1 << 10))
    });
    let raw_batched =
        sweep_row(&mut table, "raw ring, steady state (16M resident, full ties)", |k| {
            raw_ring(k, 1 << 24, 2)
        });
    let raw_spread = sweep_row(&mut table, "raw keys, spread (1M keys, distinct times)", |k| {
        timed(|| raw_keys(k, 1 << 20, 1))
    });
    report.tables.push(table);

    let cal_log = logged_churn(QueueKind::Calendar);
    let ref_log = logged_churn(QueueKind::Reference);
    report.findings.push(Finding::new(
        "dispatch order: calendar vs reference on a logged churn program",
        "determinism contract: identical (time, seq) dispatch under any queue",
        if cal_log == ref_log {
            format!("identical, {} dispatches", cal_log.len())
        } else {
            "DIVERGED".to_string()
        },
        cal_log == ref_log && !cal_log.is_empty(),
    ));
    // fslint: allow(digest-taint) — E35 *is* a wall-clock benchmark: the ratios are measurements, and the verdict is a wide threshold gate (>=3x), not a byte-pinned artifact
    report.findings.push(Finding::new(
        "batched key throughput: calendar vs heap (steady-state ring, 16M keys)",
        "calendar O(1) batch drain vs heap O(log n) sift: target >=10x",
        format!("{} (gate >=3x); burst {}", ratio(raw_batched), ratio(raw_burst)),
        raw_batched >= 3.0,
    ));
    // fslint: allow(digest-taint) — timed() measures real elapsed time by design; the gate is a coarse >=0.9x threshold, so timing noise cannot flip the recorded verdict bytes
    report.findings.push(Finding::new(
        "batched dispatch: calendar vs heap (timer ring, whole engine)",
        "batched same-timestamp dispatch must not lose to the heap",
        ratio(ring),
        ring >= 0.9,
    ));
    // fslint: allow(digest-taint) — parity check on measured wall-clock ratios, gated at a 2x margin (>=0.5); BENCH_simcore.json is an artifact of record, not a golden
    report.findings.push(Finding::new(
        "spread workloads: calendar within noise of the heap",
        "no pathological regression on churn/cancel/spread-key workloads",
        format!(
            "churn {}, cancel {}, spread keys {}",
            ratio(churn),
            ratio(cancel),
            ratio(raw_spread)
        ),
        churn >= 0.5 && cancel >= 0.5 && raw_spread >= 0.5,
    ));
    report
}
