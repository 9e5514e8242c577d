//! Cross-crate integration tests: the full fail-stutter stack working
//! together — injectors from `stutter` driving `blockdev`/`raidsim`
//! hardware, watched by detectors, reacted to by `adapt` mechanisms.

use fail_stutter::adapt::prelude::*;
use fail_stutter::blockdev::prelude::*;
use fail_stutter::cluster::prelude::*;
use fail_stutter::raidsim::prelude::*;
use fail_stutter::simcore::prelude::*;
use fail_stutter::simcore::resource::RateProfile;
use fail_stutter::stutter::prelude::*;

const HOUR: SimDuration = SimDuration::from_secs(3600);

/// End-to-end: a stuttering disk is detected, exported by the registry,
/// and the work-queue layer routes around it.
#[test]
fn detect_export_and_route_around() {
    // Four "disks" as rate sources; disk 2 stutters at 30% persistently.
    let injectors = [
        Injector::NoFault,
        Injector::NoFault,
        Injector::StaticSlowdown { factor: 0.3 },
        Injector::NoFault,
    ];
    let rng = Stream::from_seed(100);
    let profiles: Vec<SlowdownProfile> = injectors
        .iter()
        .enumerate()
        .map(|(i, inj)| inj.timeline(HOUR, &mut rng.derive(&format!("d{i}"))))
        .collect();

    // Phase 1: monitoring. Sample rates once a second for two minutes.
    let spec = PerfSpec::constant(10e6);
    let mut detectors: Vec<EwmaDetector> =
        (0..4).map(|_| EwmaDetector::new(spec.clone(), 0.3)).collect();
    let mut registry = Registry::new(SimDuration::from_secs(30));
    for s in 0..120 {
        let now = SimTime::from_secs(s);
        for (i, p) in profiles.iter().enumerate() {
            let verdict = detectors[i].observe(10e6 * p.multiplier_at(now));
            registry.report(ComponentId(i as u32), now, verdict);
        }
    }
    let faulty = registry.faulty_components();
    assert_eq!(faulty.len(), 1, "exactly the persistent stutterer: {faulty:?}");
    assert_eq!(faulty[0].0, ComponentId(2));

    // Phase 2: reaction. Feed the exported states into pull-based work
    // distribution and verify the faulty disk gets proportionally less.
    let rates: Vec<RateProfile> = profiles.iter().map(|p| p.to_rate_profile(10e6)).collect();
    let out = distribute(Strategy::Pull, &rates, 400, 1e6, SimTime::ZERO).expect("all alive");
    assert!(
        (out.per_consumer[2] as f64) < 0.5 * out.per_consumer[0] as f64,
        "faulty disk must receive less work: {:?}",
        out.per_consumer
    );
}

/// The §3.2 pipeline on mechanical disks: blockdev's zoned disks gauge
/// differently, and the raidsim proportional controller uses the gauges.
#[test]
fn mechanical_gauging_feeds_proportional_striping() {
    // Gauge two real (mechanical-model) disks: one clean, one remap-heavy.
    let mut clean = Disk::new(Geometry::hawk_5400(), Stream::from_seed(1));
    let mut dirty =
        Disk::new(Geometry::hawk_5400(), Stream::from_seed(1)).with_random_defects(2_000);
    let (bw_clean, _) =
        measure_sequential_read(&mut clean, SimTime::ZERO, 32 << 20, 1 << 20).expect("ok");
    let (bw_dirty, _) =
        measure_sequential_read(&mut dirty, SimTime::ZERO, 32 << 20, 1 << 20).expect("ok");
    assert!(bw_dirty < bw_clean);

    // Build fluid pairs from the gauged bandwidths and write through the
    // proportional controller.
    let pairs = vec![
        MirrorPair::healthy(bw_clean),
        MirrorPair::healthy(bw_dirty),
        MirrorPair::healthy(bw_clean),
    ];
    let array = Raid10::new(pairs, HOUR);
    let w = Workload::new(8_192, 65_536);
    let out = array.write_proportional(w, SimTime::ZERO, SimTime::ZERO).expect("alive");
    // The remap-heavy pair receives proportionally fewer blocks.
    assert!(out.per_pair_blocks[1] < out.per_pair_blocks[0]);
    let expected = 2.0 * bw_clean + bw_dirty;
    assert!(
        (out.throughput / expected - 1.0).abs() < 0.02,
        "throughput {} vs expected {expected}",
        out.throughput
    );
}

/// A hogged cluster node slows the sort; hedging the same workload as a
/// task batch bounds the tail.
#[test]
fn sort_and_hedging_agree_on_the_straggler() {
    let hog = Injector::StaticSlowdown { factor: 0.5 }.timeline(HOUR, &mut Stream::from_seed(11));
    let mut nodes: Vec<Node> = (0..8).map(|_| Node::new(1e6, 10e6)).collect();
    nodes[5] = Node::new(1e6, 10e6).with_cpu_profile(hog.clone()).with_disk_profile(hog.clone());

    let job = SortJob::minute_sort(4_000_000);
    let static_out = run_sort(&nodes, job, Placement::Static, SimTime::ZERO);
    let adaptive_out = run_sort(&nodes, job, Placement::Adaptive, SimTime::ZERO);
    assert!(adaptive_out.total < static_out.total);

    // The same nodes as hedged task workers.
    let rates: Vec<RateProfile> = nodes.iter().map(|n| n.cpu.rate_profile()).collect();
    let blocking = run_hedged(&rates, 32, 1e6, HedgeConfig { hedge_after: None }, SimTime::ZERO)
        .expect("alive");
    let hedged = run_hedged(
        &rates,
        32,
        1e6,
        HedgeConfig { hedge_after: Some(SimDuration::from_millis(1_500)) },
        SimTime::ZERO,
    )
    .expect("alive");
    assert!(hedged.worst_latency() <= blocking.worst_latency());
}

/// Availability accounting across the stack: the same injected stutter
/// costs the fail-stop design availability and leaves the adaptive design
/// untouched.
#[test]
fn availability_gap_under_stutter() {
    let slow = Injector::StaticSlowdown { factor: 0.25 }.timeline(HOUR, &mut Stream::from_seed(13));
    let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10e6)).collect();
    pairs[0] = MirrorPair::new(VDisk::new(10e6).with_profile(slow), VDisk::new(10e6));
    let array = Raid10::new(pairs, HOUR);

    let w = Workload::new(1_024, 65_536); // 64 MB writes
    let floor_bytes_per_sec = 0.7 * 40e6;
    let deadline = SimDuration::from_secs_f64(w.total_bytes() as f64 / floor_bytes_per_sec);
    let mut meter_static = AvailabilityMeter::new(deadline);
    let mut meter_adaptive = AvailabilityMeter::new(deadline);
    for _ in 0..16 {
        match array.write_static(w, SimTime::ZERO) {
            Ok(out) => meter_static.record(out.elapsed),
            Err(_) => meter_static.record_dropped(),
        }
        match array.write_adaptive(w, SimTime::ZERO, 16) {
            Ok(out) => meter_adaptive.record(out.elapsed),
            Err(_) => meter_adaptive.record_dropped(),
        }
    }
    assert_eq!(meter_static.availability(), 0.0, "fail-stop design misses every deadline");
    assert_eq!(meter_adaptive.availability(), 1.0, "adaptive design meets every deadline");
}

/// Determinism across the whole stack: everything keyed by seeds.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let inj = Injector::Compose(vec![
            Injector::Blackouts {
                interarrival: DurationDist::Exp { mean: SimDuration::from_secs(40) },
                duration: DurationDist::Const(SimDuration::from_secs(1)),
            },
            Injector::StaticSlowdown { factor: 0.8 },
        ]);
        let rng = Stream::from_seed(999);
        let pairs: Vec<MirrorPair> = (0..4)
            .map(|i| {
                let p = inj.timeline(HOUR, &mut rng.derive(&format!("p{i}")));
                MirrorPair::new(VDisk::new(10e6).with_profile(p), VDisk::new(10e6))
            })
            .collect();
        let array = Raid10::new(pairs, HOUR);
        let out =
            array.write_adaptive(Workload::new(8_192, 65_536), SimTime::ZERO, 32).expect("alive");
        (out.elapsed, out.per_pair_blocks)
    };
    assert_eq!(run(), run());
}

/// The rate-based predictor (stutter) warns before a dying disk
/// fail-stops, and the WiND manager turns the warning into a completed
/// rebuild.
#[test]
fn predictor_warns_then_wind_rescues() {
    let horizon = SimDuration::from_secs(14_400);
    let wear = Injector::Wearout {
        onset: SimTime::from_secs(3_600),
        ramp: SimDuration::from_secs(7_200),
        floor: 0.25,
        fail_after: Some(SimDuration::from_secs(1_800)),
    };
    let profile = wear.timeline(horizon, &mut Stream::from_seed(123));
    let fail_at = profile.fail_at().expect("dies");

    // The warning: a delivered-rate trend.
    let mut predictor = FailurePredictor::new(PredictorConfig::default());
    let mut rate_warning = None;
    let mut t = SimTime::ZERO;
    while t < fail_at {
        if rate_warning.is_none() {
            if let Some(p) = predictor.observe(t, profile.multiplier_at(t)) {
                rate_warning = Some(p.at);
            }
        }
        t += SimDuration::from_secs(30);
    }
    let rate_at = rate_warning.expect("rate-based predictor fires");
    assert!(rate_at < fail_at);

    // The manager acts on the warning: WiND with a spare rides through.
    let pair = MirrorPair::new(
        VDisk::new(10e6).with_profile(profile.clone()),
        VDisk::new(10e6).with_profile(profile),
    );
    let mut pairs =
        vec![MirrorPair::healthy(10e6), MirrorPair::healthy(10e6), MirrorPair::healthy(10e6)];
    pairs.insert(1, pair);
    let out = run_wind(&pairs, Management::Managed { hot_spares: 1 });
    assert!(out.availability > 0.9, "{}", out.availability);
    assert!(out.events.iter().any(|e| matches!(e, WindEvent::RebuildCompleted { pair: 1, .. })));
}
