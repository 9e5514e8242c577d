//! A storage array living through a bad week.
//!
//! Eight mirror pairs suffer the full §2 catalog at once — a fault-masked
//! slow disk, thermal recalibrations, interference episodes, and one disk
//! wearing out toward an absolute failure. The example runs all three
//! §3.2 controllers over the same hardware, then shows the fail-stutter
//! machinery (EWMA detectors + the notification registry) identifying the
//! persistently faulty pairs without flagging transient stutter.
//!
//! Run with: `cargo run --example adaptive_storage`

use fail_stutter::raidsim::prelude::*;
use fail_stutter::simcore::prelude::*;
use fail_stutter::stutter::prelude::*;

fn main() {
    let horizon = SimDuration::from_secs(7_200);
    let nominal = 10e6;
    let rng = Stream::from_seed(2001);

    // The §2 catalog, one phenomenon per pair (pairs 4..8 stay healthy).
    let injectors: Vec<(&str, Injector)> = vec![
        ("fault-masked (70% forever)", Injector::StaticSlowdown { factor: 0.7 }),
        (
            "thermal recalibrations",
            Injector::Blackouts {
                interarrival: DurationDist::Exp { mean: SimDuration::from_secs(60) },
                duration: DurationDist::Uniform {
                    lo: SimDuration::from_millis(500),
                    hi: SimDuration::from_millis(1500),
                },
            },
        ),
        (
            "hog episodes (30% during)",
            Injector::Episodes {
                interarrival: DurationDist::Exp { mean: SimDuration::from_secs(120) },
                duration: DurationDist::Exp { mean: SimDuration::from_secs(30) },
                factor: 0.3,
            },
        ),
        (
            "wearing out, then failing",
            Injector::Wearout {
                onset: SimTime::from_secs(600),
                ramp: SimDuration::from_secs(900),
                floor: 0.2,
                fail_after: Some(SimDuration::from_secs(300)),
            },
        ),
    ];

    let mut pairs: Vec<MirrorPair> = Vec::new();
    for (i, (_, inj)) in injectors.iter().enumerate() {
        let p = inj.timeline(horizon, &mut rng.derive(&format!("pair-{i}")));
        pairs.push(MirrorPair::new(VDisk::new(nominal).with_profile(p), VDisk::new(nominal)));
    }
    for _ in injectors.len()..8 {
        pairs.push(MirrorPair::healthy(nominal));
    }
    let array = Raid10::new(pairs, horizon);

    // 8 GB through each design.
    let w = Workload::new(131_072, 65_536);
    println!("Eight-pair array under the Section 2 fault catalog, writing 8 GB:\n");
    match array.write_static(w, SimTime::ZERO) {
        Ok(out) => println!("  equal static:        {:6.2} MB/s", out.throughput / 1e6),
        Err(e) => println!("  equal static:        HALTED ({e})"),
    }
    match array.write_proportional(w, SimTime::ZERO, SimTime::ZERO) {
        Ok(out) => println!("  proportional static: {:6.2} MB/s", out.throughput / 1e6),
        Err(e) => println!("  proportional static: HALTED ({e})"),
    }
    let adaptive = array.write_adaptive(w, SimTime::ZERO, 64).expect("survivors remain");
    println!("  adaptive:            {:6.2} MB/s", adaptive.throughput / 1e6);
    println!("\nPer-pair blocks under the adaptive controller:");
    for (i, blocks) in adaptive.per_pair_blocks.iter().enumerate() {
        let label = injectors.get(i).map_or("healthy", |(l, _)| l);
        println!("  pair {i}: {blocks:>6} blocks   ({label})");
    }

    // Now watch the array the way a fail-stutter system would: sample each
    // pair's delivered rate once a second, classify against its spec, and
    // export only persistent faults.
    let spec = PerfSpec::constant(nominal);
    let mut detectors: Vec<EwmaDetector> =
        (0..array.n()).map(|_| EwmaDetector::new(spec.clone(), 0.2)).collect();
    let mut registry = Registry::new(SimDuration::from_secs(60));
    for s in 0..1_800u64 {
        let now = SimTime::from_secs(s);
        for (i, pair) in array.pairs().iter().enumerate() {
            let verdict = if pair.failed_at(now) {
                HealthState::Failed
            } else {
                detectors[i].observe(pair.write_rate_at(now))
            };
            if let Some(n) = registry.report(ComponentId(i as u32), now, verdict) {
                println!("  [{now}] registry export: pair {i} -> {}", n.state);
            }
        }
    }
    println!(
        "\nRegistry after 30 min: {} fault export(s), {} transient report(s) suppressed.",
        registry.notifications().len(),
        registry.suppressed()
    );
    for (id, state) in registry.faulty_components() {
        println!("  exported: {id} is {state}");
    }
}
