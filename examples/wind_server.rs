//! A self-managing storage server (the paper's §5 WiND sketch, running).
//!
//! Four mirror pairs serve a continuous 25 MB/s write stream for two
//! simulated hours while pair 1 wears out and eventually fail-stops. In
//! managed mode the fail-stutter pipeline — monitors, the notification
//! registry, the failure predictor, and a hot spare — keeps the stream
//! flowing; in unmanaged (fail-stop) mode the array quietly falls behind
//! and then loses the pair.
//!
//! Run with: `cargo run --release --example wind_server`

use fail_stutter::raidsim::prelude::*;
use fail_stutter::simcore::prelude::*;
use fail_stutter::stutter::prelude::*;

fn main() {
    let horizon = SimDuration::from_secs(7_200);
    let wear = Injector::Wearout {
        onset: SimTime::from_secs(900),
        ramp: SimDuration::from_secs(1_200),
        floor: 0.2,
        fail_after: Some(SimDuration::from_secs(600)),
    };
    let profile = wear.timeline(horizon, &mut Stream::from_seed(42).derive("wind.pair-1"));
    let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10e6)).collect();
    pairs[1] = MirrorPair::new(
        VDisk::new(10e6).with_profile(profile.clone()),
        VDisk::new(10e6).with_profile(profile),
    );

    println!("Two hours, 25 MB/s offered, pair 1 wearing out then failing.\n");
    for (name, mode) in [
        ("unmanaged (fail-stop)", Management::Unmanaged),
        ("managed (fail-stutter)", Management::Managed { hot_spares: 1 }),
    ] {
        let out = run_wind(&pairs, mode);
        println!("{name}:");
        println!("  mean throughput: {:6.2} MB/s", out.mean_throughput / 1e6);
        println!("  availability:    {:6.1}%", out.availability * 100.0);
        for e in &out.events {
            match e {
                WindEvent::Exported { at, pair, state } => {
                    println!("  [{at}] exported: pair {pair} -> {state}")
                }
                WindEvent::RebuildStarted { at, pair } => {
                    println!("  [{at}] rebuild of pair {pair} onto hot spare started")
                }
                WindEvent::RebuildCompleted { at, pair } => {
                    println!("  [{at}] rebuild of pair {pair} completed; pair nominal again")
                }
                WindEvent::PairLost { at, pair } => {
                    println!("  [{at}] PAIR {pair} LOST")
                }
            }
        }
        println!();
    }
}
