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

/// Wear-out on a mirror pair: the predictor fires, the rebuild to a hot
/// spare completes before the dying replica fail-stops.
#[test]
fn predict_then_rebuild_before_failure() {
    let wearout = Injector::Wearout {
        onset: SimTime::from_secs(600),
        ramp: SimDuration::from_secs(1_200),
        floor: 0.3,
        fail_after: Some(SimDuration::from_secs(1_800)),
    };
    let profile = wearout.timeline(SimDuration::from_secs(7_200), &mut Stream::from_seed(5));
    let fail_at = profile.fail_at().expect("wearout fails");
    let pair = MirrorPair::new(VDisk::new(10e6).with_profile(profile.clone()), VDisk::new(10e6));

    // Watch the dying replica.
    let mut predictor = FailurePredictor::new(PredictorConfig::default());
    let mut predicted_at = None;
    let mut t = SimTime::ZERO;
    while t < fail_at && predicted_at.is_none() {
        if predictor.observe(t, profile.multiplier_at(t)).is_some() {
            predicted_at = Some(t);
        }
        t += SimDuration::from_secs(30);
    }
    let predicted_at = predicted_at.expect("prediction must fire before failure");
    assert!(predicted_at < fail_at);

    // React: copy the pair's data off the *healthy* replica onto a spare,
    // starting at prediction time. 10 GB at 30% of 10 MB/s ≈ 3333 s.
    let outcome = rebuild_to_spare(
        &pair,
        false, // survivor is replica b (the healthy one)
        10e9,
        20e6,
        RebuildPolicy::default(),
        predicted_at,
        SimDuration::from_secs(100_000),
    )
    .expect("healthy replica survives");
    assert!(
        outcome.completed < fail_at + SimDuration::from_secs(3600),
        "rebuild finished at {} (failure at {fail_at})",
        outcome.completed
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
    let rates: Vec<RateProfile> = nodes.iter().map(|n| n.cpu_rate_profile(HOUR)).collect();
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

/// Two independent early-warning channels agree on a dying disk: the
/// rate-based predictor (stutter) and the event-based SMART advisory
/// (blockdev) both fire before the fail-stop, and the WiND manager turns
/// the warning into a completed rebuild.
#[test]
fn smart_and_predictor_agree_then_wind_rescues() {
    use fail_stutter::blockdev::smart::{SmartConfig, SmartEvent, SmartLog};

    let horizon = SimDuration::from_secs(14_400);
    let wear = Injector::Wearout {
        onset: SimTime::from_secs(3_600),
        ramp: SimDuration::from_secs(7_200),
        floor: 0.25,
        fail_after: Some(SimDuration::from_secs(1_800)),
    };
    let profile = wear.timeline(horizon, &mut Stream::from_seed(123));
    let fail_at = profile.fail_at().expect("dies");

    // Channel 1: delivered-rate trend.
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

    // Channel 2: error events accelerating as the medium degrades. Model
    // the reallocation rate as inversely proportional to health: one event
    // per day while healthy, one per ~40 minutes at 25% health.
    let mut smart = SmartLog::new(SmartConfig {
        window: SimDuration::from_secs(3_600),
        factor: 4.0,
        min_events: 6,
    });
    let mut smart_warning = None;
    // Pre-history: a quiet month before the simulated window.
    let mut now = SimTime::ZERO;
    for d in 0..30u64 {
        smart.record(SimTime::from_secs(d * 86_400), SmartEvent::Reallocated);
        now = SimTime::from_secs(d * 86_400);
    }
    let base = now + SimDuration::from_secs(86_400);
    // Sample every minute; the event rate is one per hour while healthy,
    // rising as the square of the health deficit (deterministic
    // accumulator, no extra randomness needed).
    let mut t = SimTime::ZERO;
    let mut acc = 0.0f64;
    while t < fail_at {
        let health = profile.multiplier_at(t);
        let every_secs = (3_600.0 * health * health).max(120.0);
        acc += 60.0 / every_secs;
        if acc >= 1.0 {
            acc -= 1.0;
            if let Some(a) = smart.record(base + (t - SimTime::ZERO), SmartEvent::Reallocated) {
                smart_warning = Some(a.at);
            }
        }
        t += SimDuration::from_secs(60);
    }

    let rate_at = rate_warning.expect("rate-based predictor fires");
    assert!(rate_at < fail_at);
    let smart_at = smart_warning.expect("SMART advisory fires");
    assert!(smart_at < base + (fail_at - SimTime::ZERO));

    // The manager acts on the warning: WiND with a spare rides through.
    let pair = MirrorPair::new(
        VDisk::new(10e6).with_profile(profile.clone()),
        VDisk::new(10e6).with_profile(profile),
    );
    let mut pairs =
        vec![MirrorPair::healthy(10e6), MirrorPair::healthy(10e6), MirrorPair::healthy(10e6)];
    pairs.insert(1, pair);
    let out = run_wind(&pairs, WindConfig::default(), Management::Managed { hot_spares: 1 });
    assert!(out.availability > 0.9, "{}", out.availability);
    assert!(out.events.iter().any(|e| matches!(e, WindEvent::RebuildCompleted { pair: 1, .. })));
}
