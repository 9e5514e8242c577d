//! Criterion benchmarks of the pluggable event-queue backends: every
//! workload runs under both [`QueueKind`]s so a regression in either the
//! calendar queue or the binary-heap reference oracle shows up as a pair.
//!
//! These mirror the workloads of experiment E35 (`fs-experiments e35`),
//! which is the measured, gated version; the bench form exists for quick
//! `cargo bench -p fs-bench --bench queue` iteration and for the CI smoke
//! run (`-- --test`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use simcore::prelude::*;
use simcore::queue::{EventKey, QueueKind};

const KINDS: [QueueKind; 2] = [QueueKind::Reference, QueueKind::Calendar];

/// A ring of identically-phased periodic timers: each tick dispatches one
/// large same-timestamp batch.
fn bench_timer_ring(c: &mut Criterion) {
    for kind in KINDS {
        c.bench_function(&format!("queue/{}/timer_ring_1024x32", kind.name()), |b| {
            b.iter(|| {
                let mut sim = Simulation::with_queue_kind(0u64, kind);
                for _ in 0..1024 {
                    let mut fired = 0u64;
                    sim.schedule_periodic(SimDuration::from_millis(1), move |n: &mut u64, _| {
                        *n += 1;
                        fired += 1;
                        if fired < 32 {
                            Some(SimDuration::from_millis(1))
                        } else {
                            None
                        }
                    });
                }
                sim.run();
                black_box(sim.events_executed())
            })
        });
    }
}

/// Gossip-mesh churn: seeded pseudo-random re-arm periods spread the
/// timestamps so batches stay small.
fn bench_gossip_churn(c: &mut Criterion) {
    for kind in KINDS {
        c.bench_function(&format!("queue/{}/gossip_churn_64x50k", kind.name()), |b| {
            b.iter(|| {
                struct Churn {
                    remaining: u64,
                    rng: Stream,
                }
                let st = Churn { remaining: 50_000, rng: Stream::from_seed(35) };
                let mut sim = Simulation::with_queue_kind(st, kind);
                for n in 0..64usize {
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
                black_box(sim.events_executed())
            })
        });
    }
}

/// Heavy-cancel: schedule a burst of cancellable events and cancel three
/// quarters before they fire — the arena-slot tombstone path.
fn bench_heavy_cancel(c: &mut Criterion) {
    for kind in KINDS {
        c.bench_function(&format!("queue/{}/heavy_cancel_20k", kind.name()), |b| {
            b.iter(|| {
                let mut sim = Simulation::with_queue_kind(0u64, kind);
                let n = 20_000;
                sim.schedule_at(SimTime::from_millis(1), move |_, ctx| {
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
                black_box(sim.events_executed())
            })
        });
    }
}

/// Raw key throughput with full same-timestamp ties: the batched-drain
/// fast path E35 gates at >=10x over the heap (at steady state).
fn bench_raw_batched_keys(c: &mut Criterion) {
    for kind in KINDS {
        c.bench_function(&format!("queue/{}/raw_batched_256k", kind.name()), |b| {
            b.iter(|| {
                let mut q = kind.make();
                for seq in 0..(1u64 << 18) {
                    let at = SimTime::from_micros(seq / 1024);
                    q.push(EventKey { at, seq, slot: seq as u32 });
                }
                let mut out = Vec::new();
                let mut popped = 0u64;
                while q.pop_batch(&mut out).is_some() {
                    popped += out.len() as u64;
                    out.clear();
                }
                black_box(popped)
            })
        });
    }
}

criterion_group!(
    benches,
    bench_timer_ring,
    bench_gossip_churn,
    bench_heavy_cancel,
    bench_raw_batched_keys
);
criterion_main!(benches);
