//! Golden regression tests: exact values pinned for seeded runs.
//!
//! Determinism is a core promise of this workspace ("same seed, same
//! result, on any machine"). These tests pin *exact* outputs of seeded
//! runs so an accidental behaviour change in any substrate shows up as a
//! golden mismatch, not as a silent drift in experiment results. If you
//! change a model on purpose, update the constants — the diff then
//! documents the behavioural change.
//!
//! Regenerating: re-run the failing test and copy the measured values from
//! the assertion message into the pinned constants (see docs/TESTING.md);
//! say in the commit message which intentional change moved them.

use fail_stutter::blockdev::prelude::*;
use fail_stutter::raidsim::prelude::*;
use fail_stutter::simcore::prelude::*;
use fail_stutter::stutter::prelude::*;

#[test]
fn golden_rng_stream() {
    let mut s = Stream::from_seed(42);
    let first: Vec<u64> = (0..4).map(|_| s.next_u64()).collect();
    assert_eq!(
        first,
        vec![1546998764402558742, 6990951692964543102, 12544586762248559009, 17057574109182124193]
    );
    let mut d = Stream::from_seed(42).derive("disk-0");
    assert_eq!(d.next_u64(), 8688729524810016982);
}

#[test]
fn golden_event_loop() {
    // One self-rescheduling event, 10 µs apart, 1,000 times.
    let period = SimDuration::from_micros(10);
    let mut queue = EventQueue::new();
    queue.schedule_at(SimTime::ZERO + period, 1u64);
    let mut popped = 0;
    while let Some(count) = queue.pop_until(SimTime::MAX) {
        popped += 1;
        assert_eq!(count, popped);
        if count < 1_000 {
            queue.schedule_at(queue.now() + period, count + 1);
        }
    }
    assert_eq!(popped, 1_000);
    assert_eq!(queue.now(), SimTime::from_micros(10_000));
}

#[test]
fn golden_disk_bandwidth() {
    let mut disk = Disk::new(Geometry::hawk_5400(), Stream::from_seed(7).derive("disk"));
    let (bw, finish) =
        measure_sequential_read(&mut disk, SimTime::ZERO, 16 << 20, 1 << 20).expect("ok");
    // Pinned: the exact simulated bandwidth of this seeded configuration.
    assert_eq!(finish.as_nanos(), 3_050_402_912);
    assert!((bw - 5_499_999.99).abs() < 1.0, "bw {bw}");
}

#[test]
fn golden_scsi_census() {
    let rng = Stream::from_seed(11);
    let disks = vec![Disk::new(Geometry::hawk_5400(), rng.derive("d0"))];
    let chain = ScsiChain::new(
        disks,
        ErrorProcess::default(),
        SimDuration::from_secs(30 * 86_400),
        &mut rng.derive("errors"),
    );
    let c = chain.full_horizon_census();
    assert_eq!(
        (c.scsi_timeout, c.scsi_parity, c.network, c.other),
        (36, 21, 54, 6),
        "census drifted: {c:?}"
    );
}

#[test]
fn golden_injector_timeline() {
    let inj = Injector::Blackouts {
        interarrival: DurationDist::Exp { mean: SimDuration::from_secs(100) },
        duration: DurationDist::Const(SimDuration::from_secs(5)),
    };
    let p = inj.timeline(SimDuration::from_secs(3_600), &mut Stream::from_seed(1));
    assert_eq!(p.segments().len(), 63);
    let mean = p.mean_multiplier(SimDuration::from_secs(3_600));
    assert!((mean - 0.956_944_444).abs() < 1e-3, "mean {mean}");
}

#[test]
fn golden_adaptive_raid_write() {
    let stutter = Injector::Stutter {
        hold: DurationDist::Exp { mean: SimDuration::from_secs(20) },
        factor: FactorDist::Uniform { lo: 0.2, hi: 1.0 },
    };
    let rng = Stream::from_seed(3);
    let pairs: Vec<MirrorPair> = (0..4)
        .map(|i| {
            let p = stutter
                .timeline(SimDuration::from_secs(3_600), &mut rng.derive(&format!("pair-{i}")));
            MirrorPair::new(VDisk::new(10e6).with_profile(p), VDisk::new(10e6))
        })
        .collect();
    let array = Raid10::new(pairs, SimDuration::from_secs(3_600));
    let out =
        array.write_adaptive(Workload::new(16_384, 65_536), SimTime::ZERO, 64).expect("alive");
    assert_eq!(out.elapsed.as_nanos(), 39_205_471_668, "elapsed drifted: {}", out.elapsed);
    assert_eq!(out.per_pair_blocks.iter().sum::<u64>(), 16_384);
}
