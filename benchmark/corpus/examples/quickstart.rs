//! Quickstart: the paper's §3.2 example in thirty lines.
//!
//! Build a RAID-10 array in which one mirror pair stutters at half speed,
//! write 4 GB through each of the three controller designs, and compare
//! against the paper's closed-form predictions.
//!
//! Run with: `cargo run --example quickstart`

use fail_stutter::raidsim::prelude::*;
use fail_stutter::simcore::prelude::*;
use fail_stutter::stutter::prelude::*;

fn main() {
    let horizon = SimDuration::from_secs(3600);
    let n = 4;
    let big_b = 10e6; // healthy pair: 10 MB/s
    let b = 5e6; // the slow pair: 5 MB/s

    // One replica of pair 0 delivers half its specified bandwidth — a
    // performance fault, not a failure.
    let slow =
        Injector::StaticSlowdown { factor: b / big_b }.timeline(horizon, &mut Stream::from_seed(1));
    let mut pairs: Vec<MirrorPair> = (0..n).map(|_| MirrorPair::healthy(big_b)).collect();
    pairs[0] = MirrorPair::new(VDisk::new(big_b).with_profile(slow), VDisk::new(big_b));
    let array = Raid10::new(pairs, horizon);

    // Write D = 65536 blocks of 64 KB (4 GB).
    let w = Workload::new(65_536, 65_536);

    let s1 = array.write_static(w, SimTime::ZERO).expect("no absolute failures");
    let s2 =
        array.write_proportional(w, SimTime::ZERO, SimTime::ZERO).expect("no absolute failures");
    let s3 = array.write_adaptive(w, SimTime::ZERO, 64).expect("no absolute failures");

    println!("RAID-10, N = {n} pairs, B = 10 MB/s, one pair at b = 5 MB/s\n");
    println!(
        "  scenario 1  equal static striping      {:6.2} MB/s   (paper: N*b        = {:5.1})",
        s1.throughput / 1e6,
        scenario1_throughput(n, big_b, b) / 1e6
    );
    println!(
        "  scenario 2  proportional striping      {:6.2} MB/s   (paper: (N-1)*B+b  = {:5.1})",
        s2.throughput / 1e6,
        scenario2_throughput(n, big_b, b) / 1e6
    );
    println!(
        "  scenario 3  adaptive striping          {:6.2} MB/s   (paper: available  = {:5.1})",
        s3.throughput / 1e6,
        (3.0 * big_b + b) / 1e6
    );
    println!(
        "\nThe fail-stop design wastes {:.0}% of the hardware it paid for.",
        scenario1_waste(n, big_b, b) * 100.0
    );
}
