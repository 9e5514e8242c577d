//! Criterion micro-benchmarks of the simulation kernel and device models.
//!
//! These measure the *simulator's* own performance (host wall-clock), not
//! simulated time: event-queue throughput, RNG speed, histogram recording,
//! disk service-time computation, and one full adaptive-RAID write.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use blockdev::prelude::*;
use raidsim::prelude::*;
use simcore::prelude::*;

fn bench_event_loop(c: &mut Criterion) {
    c.bench_function("simcore/event_loop_100k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(0u64);
            sim.schedule_periodic(SimDuration::from_micros(1), |count: &mut u64, _| {
                *count += 1;
                if *count < 100_000 {
                    Some(SimDuration::from_micros(1))
                } else {
                    None
                }
            });
            sim.run();
            black_box(*sim.state())
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("simcore/rng_1m_draws", |b| {
        b.iter(|| {
            let mut s = Stream::from_seed(1);
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(s.next_u64());
            }
            black_box(acc)
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("simcore/histogram_100k_records", |b| {
        b.iter(|| {
            let mut h = Histogram::new();
            let mut s = Stream::from_seed(2);
            for _ in 0..100_000 {
                h.record(s.next_f64_range(1.0, 1e6));
            }
            black_box(h.quantile(0.99))
        })
    });
}

fn bench_disk_reads(c: &mut Criterion) {
    c.bench_function("blockdev/10k_random_reads", |b| {
        b.iter(|| {
            let mut d = Disk::new(Geometry::hawk_5400(), Stream::from_seed(3));
            let mut rng = Stream::from_seed(4);
            let mut t = SimTime::ZERO;
            for _ in 0..10_000 {
                let lba = rng.next_below(3_000_000);
                let g = d.read(t, lba, 64).expect("healthy");
                t = g.finish;
            }
            black_box(t)
        })
    });
}

fn bench_adaptive_raid(c: &mut Criterion) {
    c.bench_function("raidsim/adaptive_write_4gb", |b| {
        let pairs: Vec<MirrorPair> = (0..8).map(|_| MirrorPair::healthy(10e6)).collect();
        let array = Raid10::new(pairs, SimDuration::from_secs(3600));
        let w = Workload::new(65_536, 65_536);
        b.iter(|| black_box(array.write_adaptive(w, SimTime::ZERO, 64).expect("alive")))
    });
}

fn bench_injector_timeline(c: &mut Criterion) {
    use stutter::prelude::*;
    c.bench_function("stutter/compose_timeline_24h", |b| {
        let inj = Injector::Compose(vec![
            Injector::Blackouts {
                interarrival: DurationDist::Exp { mean: SimDuration::from_secs(60) },
                duration: DurationDist::Const(SimDuration::from_secs(1)),
            },
            Injector::Stutter {
                hold: DurationDist::Exp { mean: SimDuration::from_secs(120) },
                factor: FactorDist::Uniform { lo: 0.3, hi: 1.0 },
            },
        ]);
        b.iter(|| {
            let mut rng = Stream::from_seed(1);
            black_box(inj.timeline(SimDuration::from_secs(86_400), &mut rng))
        })
    });
}

fn bench_transpose(c: &mut Criterion) {
    use netsim::prelude::*;
    c.bench_function("netsim/transpose_16_nodes", |b| {
        let cfg = TransposeConfig::default();
        let mut mult = vec![1.0; cfg.nodes];
        mult[5] = 1.0 / 3.0;
        b.iter(|| black_box(run_transpose(&cfg, &mult)))
    });
}

fn bench_wind(c: &mut Criterion) {
    use stutter::prelude::*;
    c.bench_function("raidsim/wind_two_hours", |b| {
        let wear = Injector::Wearout {
            onset: SimTime::from_secs(900),
            ramp: SimDuration::from_secs(1_200),
            floor: 0.2,
            fail_after: Some(SimDuration::from_secs(600)),
        };
        let p = wear.timeline(SimDuration::from_secs(7_200), &mut Stream::from_seed(61));
        let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10e6)).collect();
        pairs[1] = MirrorPair::new(
            VDisk::new(10e6).with_profile(p.clone()),
            VDisk::new(10e6).with_profile(p),
        );
        b.iter(|| {
            black_box(run_wind(
                &pairs,
                WindConfig::default(),
                Management::Managed { hot_spares: 1 },
            ))
        })
    });
}

fn bench_cluster_sort(c: &mut Criterion) {
    use cluster::prelude::*;
    c.bench_function("cluster/sort_8m_records", |b| {
        let nodes: Vec<Node> = (0..8).map(|_| Node::new(1e6, 10e6)).collect();
        let job = SortJob::minute_sort(8_000_000);
        b.iter(|| black_box(run_sort(&nodes, job, Placement::Adaptive, SimTime::ZERO)))
    });
}

criterion_group!(
    benches,
    bench_event_loop,
    bench_rng,
    bench_histogram,
    bench_disk_reads,
    bench_adaptive_raid,
    bench_injector_timeline,
    bench_transpose,
    bench_wind,
    bench_cluster_sort
);
criterion_main!(benches);
